package repro.spark

import scala.annotation.unused
import scala.collection.mutable
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import repro.cdd.Rule
import repro.core._
import repro.impute.{Imputer, Repo}
import repro.index.{CDDIndex, DRIndex}

/** An arrival as it enters Spark. A `null` attribute element encodes a
  * missing value ("–" in the paper).
  */
final case class RecordRow(rid: Long, sid: Int, ts: Long, attrs: Seq[String]) {
  def toRecord: Record = Record(rid, sid, ts, attrs.map(Option(_)).toVector)
}
object RecordRow {
  def of(r: Record): RecordRow = RecordRow(r.rid, r.sid, r.ts, r.attrs.map(_.orNull))
}

/** Micro-batch TER-iDS on Spark, a thin layer over `Engine`'s functions
  * (DESIGN.md "Layering note"). Each batch is two Spark jobs: a map that
  * imputes and sketches every arrival once, as `Engine` does, then a job
  * that tests each arrival with `Pruning.testPair` against exactly the
  * windows `Engine` holds when that arrival comes in.
  *
  * The windows stay in this object, outside Spark, and follow `Engine.step`'s
  * eviction: as a timestamp (a run of rows with equal `ts`, which a batch
  * must not split) starts, each stream with an arrival is cut to w − 1
  * tuples; then the arrivals are matched and appended in the order given.
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
  private val sc = spark.sparkContext

  private val sketcher = SparkTER.Sketcher(rules, repo, new CDDIndex(rules, pivots, d),
    Engine.drIndexFor(repo, pivots), pivots, params.keywordTokens)

  // Broadcast on first use: the repository and indexes reach the tasks once,
  // not with every batch's closure.
  private lazy val sketcherBc: Broadcast[SparkTER.Sketcher] = sc.broadcast(sketcher)

  /** Per-stream windows, oldest first. */
  private val windows = mutable.Map.empty[Int, Array[TupleSketch]]
  private val all     = mutable.LinkedHashSet.empty[(Long, Long)]

  def windowState: Seq[TupleSketch] = windows.valuesIterator.flatten.toSeq
  def allMatches: Set[(Long, Long)] = all.toSet

  /** Process one micro-batch of arrivals; returns the new matching pairs. */
  def processBatch(records: Seq[RecordRow]): Set[(Long, Long)] = {
    if (records.isEmpty) return Set.empty
    val bc       = sketcherBc
    val arrivals = sc.parallelize(records, sc.defaultParallelism).map(r => bc.value.sketch(r)).collect()

    // Per stream, what this batch's arrivals can see: the window as the batch
    // starts, then the stream's own arrivals. Replaying Engine.step on
    // positions gives each arrival the range [from, until) of every stream.
    val sids  = (windows.keySet ++ arrivals.map(_.sid)).toArray.sorted
    val cands = sids.map(s => windows.getOrElse(s, Array.empty[TupleSketch]) ++ arrivals.filter(_.sid == s))
    val from  = new Array[Int](sids.length)
    val until = sids.map(s => windows.get(s).fold(0)(_.length))
    val probes = arrivals.indices.map { a =>
      val ts = arrivals(a).ts
      if (a == 0 || arrivals(a - 1).ts != ts) // a timestamp starts: cut its streams to w - 1 tuples
        arrivals.iterator.drop(a).takeWhile(_.ts == ts).map(r => sids.indexOf(r.sid))
          .foreach(s => from(s) = math.max(from(s), until(s) - (params.w - 1)))
      val s = sids.indexOf(arrivals(a).sid)
      until(s) += 1
      SparkTER.Probe(s, until(s) - 1, from.clone(), until.clone())
    }
    sids.indices.foreach(s => windows(sids(s)) = cands(s).slice(from(s), until(s)))

    val (k, gamma, alpha) = (params.keywordTokens, params.gamma, params.alpha)
    val matched = sc.parallelize(probes, sc.defaultParallelism).flatMap { p =>
      val q      = cands(p.stream)(p.pos)
      val qHasKw = q.hasAnyKeyword(k)
      for {
        s <- p.from.indices.iterator if s != p.stream
        c <- p.from(s).until(p.until(s)).iterator.map(cands(s))
        if Pruning.testPair(q, qHasKw, c, k, gamma, alpha).matched
      } yield (math.min(q.rid, c.rid), math.max(q.rid, c.rid))
    }.collect().toSet

    all ++= matched
    matched
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

  /** What a task needs to impute and sketch an arrival as `Engine` does. */
  private[spark] final case class Sketcher(rules: Seq[Rule], repo: Repo, cddIndex: CDDIndex,
                                           drIndex: Option[DRIndex], pivots: Pivots, keywords: Set[String]) {
    def sketch(row: RecordRow): TupleSketch =
      TupleSketch.of(Imputer.impute(row.toRecord, rules, repo, Some(cddIndex), drIndex), pivots, keywords)
  }

  /** One arrival's pair tests: the arrival is `cands(stream)(pos)`, and it
    * sees positions `[from(s), until(s))` of every other stream `s`.
    */
  private[spark] final case class Probe(stream: Int, pos: Int, from: Array[Int], until: Array[Int])
}
