package repro.spark

import java.nio.ByteBuffer
import scala.annotation.unused
import scala.collection.mutable
import scala.reflect.ClassTag
import org.apache.spark.{SparkEnv, TaskContext}
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import repro.cdd.Rule
import repro.core._
import repro.eval.TERiDS
import repro.impute.{ImputePlan, Repo}

/** An arrival as it enters Spark. A `null` attribute element encodes a
  * missing value ("–" in the paper).
  */
final case class RecordRow(rid: Long, sid: Int, ts: Long, attrs: Seq[String]) {
  def toRecord: Record = Record(rid, sid, ts, attrs.map(Option(_)).toVector)
}
object RecordRow {
  def of(r: Record): RecordRow = RecordRow(r.rid, r.sid, r.ts, r.attrs.map(_.orNull))
}

/** Per-run totals of a [[SparkTER]]: where a batch's time and pair tests
  * go, and the imputation ledger of its arrivals.
  */
final class SparkStats {
  /** Batches whose job succeeded; a failed batch counts nothing. */
  var batches: Long         = 0
  /** The batch's Spark job: imputation, sketching and the in-task pair
    * tests, up to the driver's decoded copy of the tasks' sketches.
    */
  var jobNanos: Long        = 0
  /** Same-batch pair tests on the driver. */
  var driverPairNanos: Long = 0
  /** Broadcasting each batch's sketches as a window segment. */
  var broadcastNanos: Long  = 0
  /** The serialized sketches broadcast as segments. */
  var segmentBytes: Long    = 0
  var taskPairTests: Long   = 0
  var driverPairTests: Long = 0
  // The imputation ledger the tasks return, summed: `RunStats`'s counters of
  // the same names.
  var imputeSamplesChecked: Long = 0
  var imputedTuples: Long        = 0
  var imputedAttrs: Long         = 0
  var sentinelFallbacks: Long    = 0
  var instanceCapBinds: Long     = 0
  var droppedMass: Double        = 0.0

  private[spark] def addImputation(s: RunStats): Unit = {
    imputeSamplesChecked += s.imputeSamplesChecked
    imputedTuples += s.imputedTuples
    imputedAttrs += s.imputedAttrs
    sentinelFallbacks += s.sentinelFallbacks
    instanceCapBinds += s.instanceCapBinds
    droppedMass += s.droppedMass
  }
}

/** Micro-batch TER-iDS on Spark, a thin layer over `Engine`'s functions
  * (DESIGN.md "Layering note"). Each batch is one Spark job: a task imputes
  * and sketches its arrivals with TER-iDS's `ImputePlan`, as `Engine` does,
  * and tests each with `Pruning.testPair` against the window positions that
  * existed before the batch. The driver then tests each arrival against the earlier arrivals
  * of other streams in the same batch.
  *
  * The windows stay in this object, outside Spark, and follow `Engine.step`'s
  * eviction: as a timestamp (a run of rows with equal `ts`) starts, each
  * stream with an arrival is cut to w − 1 tuples; then the arrivals are
  * matched and appended in the order given. A batch must hold whole
  * timestamps in order: its `ts` must not decrease, and its first `ts` must
  * exceed the previous batch's last.
  *
  * A window holds references into segments: each batch's sketches are
  * broadcast once, as one segment, and a segment is destroyed as soon as no
  * window references it. A task serializes its sketches once, and the
  * driver broadcasts those bytes as the segment, unchanged. The task is a
  * named class, [[SparkTER.BatchTask]], that carries segment handles and
  * index arrays, not sketches. `d` and `vocab` are unused.
  */
final class SparkTER(
    spark: SparkSession,
    @unused d: Int,
    rules: Seq[Rule],
    repo: Repo,
    pivots: Pivots,
    @unused vocab: Set[String],
    params: Params,
) {
  import SparkTER._

  private val sc = spark.sparkContext

  private val plan = new ImputePlan(TERiDS, rules, repo, pivots, params.keywordTokens)

  // Broadcast on first use: the repository and indexes reach the tasks once,
  // not with every batch's closure. The plan goes out serialized, so the
  // broadcast sizes a byte array rather than walking the plan; once it is
  // stored, the driver's copy is handed the plan, so tasks in the driver's
  // JVM decode nothing.
  private lazy val planBc: Broadcast[PlanBytes] = {
    val bytes = new PlanBytes(encode(plan))
    val bc    = sc.broadcast(bytes)
    bytes.local = plan
    bc
  }

  /** Per-stream windows, oldest first. */
  private val windows  = mutable.Map.empty[Int, Vector[Slot]]
  /** The segments some window references. */
  private val segments = mutable.ArrayBuffer.empty[Segment]
  private val all      = mutable.LinkedHashSet.empty[(Long, Long)]
  private var lastTs   = Long.MinValue

  val stats = new SparkStats

  def windowState: Seq[TupleSketch] = windows.valuesIterator.flatMap(_.map(_.sketch)).toSeq
  def allMatches: Set[(Long, Long)] = all.toSet

  private def referenced: Set[Segment] = windows.valuesIterator.flatMap(_.iterator.map(_.seg)).toSet

  /** Segments not yet destroyed, and the segments the windows reference. */
  private[spark] def liveSegments: Int       = segments.size
  private[spark] def referencedSegments: Int = referenced.size
  /** The live segments' broadcast values. */
  private[spark] def segmentHolders: Seq[SegmentBytes] = segments.map(_.bytes).toSeq
  /** The plan's broadcast value. */
  private[spark] def planHolder: PlanBytes = planBc.value

  /** The task of a batch over streams `sids`, against the current windows. */
  private[spark] def taskFor(sids: Array[Int]): BatchTask =
    new BatchTask(View.of(segments, sids.map(s => windows.getOrElse(s, Vector.empty))), planBc,
      params.keywordTokens, params.gamma, params.alpha)

  /** Process one micro-batch of arrivals; returns the new matching pairs. */
  def processBatch(records: Seq[RecordRow]): Set[(Long, Long)] = {
    if (records.isEmpty) return Set.empty
    require(records.head.ts > lastTs, s"batch starts at ts ${records.head.ts}, not after the previous batch's " +
      s"last ts $lastTs: a timestamp must reach processBatch whole")
    require(records.iterator.zip(records.iterator.drop(1)).forall { case (a, b) => a.ts <= b.ts },
      "timestamps decrease within a batch: processBatch takes whole timestamps in order")
    require(records.map(r => (r.ts, r.sid)).distinct.size == records.size,
      "two arrivals of one stream in one timestamp: a stream takes one arrival per timestamp")

    // Per stream, what this batch's arrivals can see: the window as the batch
    // starts (positions below `pre`), then the stream's own arrivals.
    // Replaying Engine.step on positions gives each arrival the range
    // [from, until) of every stream.
    val sids  = (windows.keySet ++ records.map(_.sid)).toArray.sorted
    val pre   = sids.map(s => windows.get(s).fold(0)(_.length))
    val from  = new Array[Int](sids.length)
    val until = pre.clone()
    val probes = records.indices.map { a =>
      val ts = records(a).ts
      if (a == 0 || records(a - 1).ts != ts) // a timestamp starts: cut its streams to w - 1 tuples
        records.iterator.drop(a).takeWhile(_.ts == ts).map(r => sids.indexOf(r.sid))
          .foreach(s => from(s) = math.max(from(s), until(s) - (params.w - 1)))
      val s = sids.indexOf(records(a).sid)
      until(s) += 1
      Probe(s, from.clone(), until.clone())
    }

    // One job: sketch each arrival and test it against the pre-batch windows.
    val t0    = System.nanoTime()
    val parts = sc.runJob(sc.parallelize(records.zip(probes), sc.defaultParallelism), taskFor(sids))
    stats.jobNanos += System.nanoTime() - t0
    // The job succeeded: only now does the batch consume its timestamps.
    lastTs = records.last.ts
    stats.batches += 1
    val matched = mutable.Set.empty[(Long, Long)]
    parts.foreach { p => stats.addImputation(p.ledger); stats.taskPairTests += p.tests; matched ++= p.matches }

    // The tasks' bytes become the segment as they are. They are broadcast
    // before anything decodes them, so the broadcast sizes bytes, not sketches.
    val t1    = System.nanoTime()
    val bytes = new SegmentBytes(parts.map(_.sketches))
    val seg   = new Segment(sc.broadcast(bytes), bytes)
    stats.broadcastNanos += System.nanoTime() - t1
    stats.segmentBytes += bytes.size
    val t2       = System.nanoTime()
    val sketches = seg.sketches // local tasks read this same array
    stats.jobNanos += System.nanoTime() - t2

    // Same-batch pairs: each arrival against the earlier arrivals of other
    // streams in this batch, window positions at or above `pre`.
    val (k, gamma, alpha) = (params.keywordTokens, params.gamma, params.alpha)
    val t3    = System.nanoTime()
    val added = sids.indices.map(s => probes.indices.filter(probes(_).stream == s))
    probes.indices.foreach { a =>
      val (p, q) = (probes(a), sketches(a))
      val qHasKw = q.hasAnyKeyword(k)
      sids.indices.foreach { s =>
        if (s != p.stream) (math.max(p.from(s), pre(s)) until p.until(s)).foreach { c =>
          val o = sketches(added(s)(c - pre(s)))
          if (Pruning.testPair(q, qHasKw, o, k, gamma, alpha).matched) matched += pairKey(q, o)
          stats.driverPairTests += 1
        }
      }
    }
    stats.driverPairNanos += System.nanoTime() - t3

    segments += seg
    sids.indices.foreach(s =>
      windows(sids(s)) = (windows.getOrElse(sids(s), Vector.empty) ++ added(s).map(Slot(seg, _))).slice(from(s), until(s)))
    val live = referenced
    segments.filterInPlace(g => live(g) || { g.bc.destroy(); false })

    all ++= matched
    matched.toSet
  }

  /** Drive interleaved streams (one record per stream per timestamp, until
    * each stream ends) in micro-batches of `batchTs` timestamps each.
    */
  def runStreams(streams: Seq[Seq[Record]], batchTs: Int): Set[(Long, Long)] = {
    val n = streams.map(_.size).max
    var t = 0
    while (t < n) {
      val hi    = math.min(n, t + batchTs)
      val batch = (t until hi).flatMap(ts => streams.flatMap(s => if (ts < s.size) Some(RecordRow.of(s(ts))) else None))
      processBatch(batch)
      t = hi
    }
    allMatches
  }
}

object SparkTER {

  /** One batch's sketches as its tasks serialized them, one byte array per
    * partition, in arrival order. It is broadcast as it is, and `sketches`
    * decodes the bytes on its first read, once per JVM: tasks that run in
    * the driver's JVM read the driver's array.
    */
  private[spark] final class SegmentBytes(val parts: Array[Array[Byte]]) extends Serializable {
    @transient lazy val sketches: Array[TupleSketch] = parts.flatMap(decode[Array[TupleSketch]])
    def size: Long = parts.iterator.map(_.length.toLong).sum
  }

  /** A serialized `ImputePlan`. `plan` decodes it on first read, once per
    * JVM, unless `local` already holds it.
    */
  private[spark] final class PlanBytes(val bytes: Array[Byte]) extends Serializable {
    @transient @volatile private[spark] var local: ImputePlan = _
    @transient lazy val plan: ImputePlan = if (local != null) local else decode[ImputePlan](bytes)
  }

  /** One batch's segment: its broadcast, and the driver's reference to the
    * broadcast value. Not serializable, so no task can capture the sketches
    * by mistake.
    */
  private final class Segment(val bc: Broadcast[SegmentBytes], val bytes: SegmentBytes) {
    def sketches: Array[TupleSketch] = bytes.sketches
  }

  /** A window entry: the sketch at `i` in `seg`. */
  private final case class Slot(seg: Segment, i: Int) {
    def sketch: TupleSketch = seg.sketches(i)
  }

  /** The pre-batch windows as a task sees them: entry `p` of stream `s` is
    * `segs(seg(s)(p)).value.sketches(idx(s)(p))`.
    */
  private[spark] final case class View(segs: Array[Broadcast[SegmentBytes]], seg: Array[Array[Int]], idx: Array[Array[Int]]) {
    def resolve(): Array[Array[TupleSketch]] = {
      val values = segs.map(_.value.sketches)
      seg.indices.map(s => seg(s).indices.map(p => values(seg(s)(p))(idx(s)(p))).toArray).toArray
    }
  }
  private object View {
    def of(live: collection.Seq[Segment], wins: Array[Vector[Slot]]): View = {
      val at = live.iterator.zipWithIndex.toMap
      View(live.iterator.map(_.bc).toArray, wins.map(_.iterator.map(sl => at(sl.seg)).toArray),
        wins.map(_.iterator.map(_.i).toArray))
    }
  }

  /** One arrival's pair tests: the arrival belongs to stream `stream`, and
    * it sees positions `[from(s), until(s))` of every other stream `s`.
    */
  private[spark] final case class Probe(stream: Int, from: Array[Int], until: Array[Int])

  /** A task's answer for its partition: the arrivals' sketches, serialized
    * once, the pairs they match in the pre-batch windows, the pair tests
    * made and the imputation counters.
    */
  private[spark] final case class PartResult(sketches: Array[Byte], matches: Array[(Long, Long)], tests: Long, ledger: RunStats)

  /** A batch's task: imputes and sketches each arrival of its partition
    * with the broadcast plan, and tests it against the pre-batch window
    * positions its `Probe` allows. A named class, not a lambda, so Spark's
    * closure cleaner, which rewrites only closures, returns at once: no
    * class file is re-read and no serializability check runs per job. It
    * holds the view, the plan's broadcast and the query parameters, nothing
    * of the `SparkTER` that built it.
    */
  private[spark] final class BatchTask(
      view: View,
      plan: Broadcast[PlanBytes],
      k: Set[String],
      gamma: Double,
      alpha: Double,
  ) extends ((TaskContext, Iterator[(RecordRow, Probe)]) => PartResult) with Serializable {

    def apply(ctx: TaskContext, rows: Iterator[(RecordRow, Probe)]): PartResult = {
      val old      = view.resolve()
      val ledger   = new RunStats
      val sketches = Array.newBuilder[TupleSketch]
      val matches  = Array.newBuilder[(Long, Long)]
      var tests    = 0L
      rows.foreach { case (row, p) =>
        val q      = plan.value.plan.sketch(row.toRecord, ledger)
        val qHasKw = q.hasAnyKeyword(k)
        var s      = 0
        while (s < p.from.length) {
          if (s != p.stream) {
            var c = p.from(s) // every pre-batch position from here on is below until(s)
            while (c < old(s).length) {
              if (Pruning.testPair(q, qHasKw, old(s)(c), k, gamma, alpha).matched) matches += pairKey(q, old(s)(c))
              tests += 1
              c += 1
            }
          }
          s += 1
        }
        sketches += q
      }
      PartResult(encode(sketches.result()), matches.result(), tests, ledger)
    }
  }

  /** Sketches and plans to bytes and back with Spark's serializer, the one
    * it uses for task results and broadcasts.
    */
  private def encode[T: ClassTag](o: T): Array[Byte] = {
    val buf = SparkEnv.get.serializer.newInstance().serialize(o)
    val out = new Array[Byte](buf.remaining)
    buf.get(out)
    out
  }
  private def decode[T: ClassTag](bytes: Array[Byte]): T =
    SparkEnv.get.serializer.newInstance().deserialize[T](ByteBuffer.wrap(bytes))

  private def pairKey(q: TupleSketch, c: TupleSketch): (Long, Long) = (math.min(q.rid, c.rid), math.max(q.rid, c.rid))
}
