package repro.stream

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.Trigger
import repro.cdd.Rule
import repro.core.{Params, Pivots}
import repro.impute.Repo
import repro.spark.{RecordRow, SparkTER}

/** Structured Streaming front-end for TER-iDS: arrivals flow through a
  * `MemoryStream[RecordRow]` source and each micro-batch is processed by
  * [[SparkTER]] inside `foreachBatch` — online imputation + stateful
  * window join per micro-batch (the repro target's
  * "Structured Streaming with stateful joins ... on micro-batches").
  *
  * `foreachBatch` + explicit state is the supported pattern here because
  * the paper's operator needs a count-based sliding window with
  * self-eviction and an unbounded-side join of the batch against that
  * window — neither is expressible with built-in stream-stream joins.
  *
  * `SparkTER` takes whole timestamps in order, so each micro-batch's newest
  * timestamp is held back until a later one arrives. Reading `allMatches`
  * flushes it: a caller that reads mid-timestamp and then feeds the rest of
  * that timestamp gets `SparkTER`'s `IllegalArgumentException` (from
  * `allMatches`, or from `feed` wrapped in the query's failure), not windows
  * that differ from `Engine`'s; so does a feed of two rows of one stream at
  * one `ts`.
  */
final class StreamingTER(
    spark: SparkSession,
    d: Int,
    rules: Seq[Rule],
    repo: Repo,
    pivots: Pivots,
    params: Params,
) {
  import spark.implicits._

  val ter = new SparkTER(spark, d, rules, repo, pivots, Set.empty, params)

  // SparkTER cuts windows as a timestamp starts, so a timestamp must reach it
  // whole: a micro-batch's newest one waits for a later one or a read.
  private var pending = Vector.empty[RecordRow]

  private def process(rows: Seq[RecordRow], flush: Boolean): Unit = synchronized {
    val all          = (pending ++ rows).sortBy(r => (r.ts, r.sid))
    val (done, held) = all.partition(r => flush || r.ts < all.last.ts)
    ter.processBatch(done)
    pending = held
  }

  private implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
  val source: MemoryStream[RecordRow] = MemoryStream[RecordRow]

  private val query = source
    .toDS()
    .writeStream
    .outputMode("update")
    .trigger(Trigger.ProcessingTime(0))
    .foreachBatch { (ds: org.apache.spark.sql.Dataset[RecordRow], _: Long) =>
      process(ds.collect().toSeq, flush = false)
    }
    .start()

  /** Feed arrivals and block until the engine has consumed them (all but
    * the held-back newest timestamp).
    */
  def feed(rows: Seq[RecordRow]): Unit = {
    source.addData(rows)
    query.processAllAvailable()
  }

  def allMatches: Set[(Long, Long)] = {
    process(Seq.empty, flush = true)
    ter.allMatches
  }

  def stop(): Unit = query.stop()
}
