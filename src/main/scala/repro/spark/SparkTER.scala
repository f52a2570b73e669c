package repro.spark

import java.nio.ByteBuffer
import scala.annotation.unused
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

/** Per-run totals of a [[SparkTER]]: its batches, where their time goes,
  * and `run`, its engine's `RunStats` with the tasks' imputation ledgers
  * folded in.
  */
final class SparkStats(val run: RunStats) {
  /** Batches whose job succeeded; a failed batch counts nothing. */
  var batches: Long    = 0
  /** The batch's Spark job: imputation and sketching, up to the driver's
    * copy of the tasks' sketches.
    */
  var jobNanos: Long   = 0
  /** The driver engine's window join over the batch's timestamps. */
  var matchNanos: Long = 0
}

/** Micro-batch TER-iDS on Spark, a thin layer over `Engine` (DESIGN.md
  * "Layering note"). Each batch is one Spark job whose tasks impute and
  * sketch its arrivals with the broadcast `ImputePlan` of the TER-iDS
  * `Engine` this object owns. The driver then steps that engine through the
  * batch's timestamps in order with those sketches, so the windows, the
  * ER-grid join and the pruning cascade are the engine's, and so are the
  * pairs.
  *
  * A batch must hold whole timestamps in order: its `ts` must not decrease,
  * and its first `ts` must exceed the previous batch's last. The job runs
  * before any state changes, so a batch whose job fails consumes nothing.
  * `vocab` is unused.
  */
final class SparkTER(
    spark: SparkSession,
    d: Int,
    rules: Seq[Rule],
    repo: Repo,
    pivots: Pivots,
    @unused vocab: Set[String],
    params: Params,
) {
  import SparkTER._

  private val sc     = spark.sparkContext
  private val engine = new Engine(d, rules, Some(repo), pivots, params, TERiDS)

  // Broadcast on first use: the engine's plan, with the repository and
  // indexes it holds, reaches the tasks once, not with every batch's task.
  // It goes out serialized, so the broadcast sizes a byte array rather than
  // walking the plan; once it is stored, the driver's copy is handed the
  // plan, so tasks in the driver's JVM decode nothing.
  private lazy val planBc: Broadcast[PlanBytes] = {
    val plan  = engine.plan.get
    val buf   = SparkEnv.get.serializer.newInstance().serialize(plan)
    val bytes = new PlanBytes(new Array[Byte](buf.remaining))
    buf.get(bytes.bytes)
    val bc    = sc.broadcast(bytes)
    bytes.local = plan
    bc
  }

  private var lastTs = Long.MinValue

  val stats = new SparkStats(engine.stats)

  def windowState: Seq[TupleSketch] = engine.windowState
  def allMatches: Set[(Long, Long)] = engine.allMatches

  private[spark] def planHolder: PlanBytes = planBc.value
  private[spark] def task: BatchTask        = new BatchTask(planBc)

  /** Process one micro-batch of arrivals; returns the new matching pairs. */
  def processBatch(records: Seq[RecordRow]): Set[(Long, Long)] = {
    if (records.isEmpty) return Set.empty
    require(records.head.ts > lastTs, s"batch starts at ts ${records.head.ts}, not after the previous batch's " +
      s"last ts $lastTs: a timestamp must reach processBatch whole")
    require(records.iterator.zip(records.iterator.drop(1)).forall { case (a, b) => a.ts <= b.ts },
      "timestamps decrease within a batch: processBatch takes whole timestamps in order")
    require(records.map(r => (r.ts, r.sid)).distinct.size == records.size,
      "two arrivals of one stream in one timestamp: a stream takes one arrival per timestamp")

    // One job: impute and sketch each arrival.
    val t0    = System.nanoTime()
    val parts = sc.runJob(sc.parallelize(records, sc.defaultParallelism), task)
    stats.jobNanos += System.nanoTime() - t0
    // The job succeeded: only now does the batch consume its timestamps.
    lastTs = records.last.ts
    stats.batches += 1
    parts.foreach(p => stats.run.add(p.ledger))

    // The engine's window join, one timestamp at a time.
    val before = engine.found.size
    val t1     = System.nanoTime()
    records.zip(parts.iterator.flatMap(_.sketches)).groupBy(_._1.ts).toSeq.sortBy(_._1).foreach { case (_, now) =>
      engine.step(now.map(_._1.toRecord), now.map(_._2).toArray)
    }
    stats.matchNanos += System.nanoTime() - t1
    engine.found.iterator.drop(before).toSet
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

  /** An `ImputePlan` serialized with Spark's serializer, the one it uses
    * for task results and broadcasts. `plan` decodes it on first read, once
    * per JVM, unless `local` already holds it.
    */
  private[spark] final class PlanBytes(val bytes: Array[Byte]) extends Serializable {
    @transient @volatile private[spark] var local: ImputePlan = _
    @transient lazy val plan: ImputePlan =
      if (local != null) local else SparkEnv.get.serializer.newInstance().deserialize[ImputePlan](ByteBuffer.wrap(bytes))
  }

  /** A task's answer for its partition: the arrivals' sketches, in order,
    * and the imputation counters.
    */
  private[spark] final case class PartResult(sketches: Array[TupleSketch], ledger: RunStats)

  /** A batch's task: imputes and sketches each arrival of its partition
    * with the broadcast plan. A named class, not a lambda, so Spark's
    * closure cleaner, which rewrites only closures, returns at once: no
    * class file is re-read and no serializability check runs per job. It
    * holds the plan's broadcast, nothing of the `SparkTER` that built it.
    */
  private[spark] final class BatchTask(plan: Broadcast[PlanBytes])
      extends ((TaskContext, Iterator[RecordRow]) => PartResult) with Serializable {

    def apply(ctx: TaskContext, rows: Iterator[RecordRow]): PartResult = {
      val ledger = new RunStats
      PartResult(rows.map(r => plan.value.plan.sketch(r.toRecord, ledger)).toArray, ledger)
    }
  }
}
