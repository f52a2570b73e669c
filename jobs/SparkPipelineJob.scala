package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.{Params, UseCDD}
import repro.data.ERSynth
import repro.eval._
import repro.spark.SparkTER

/** Runs the TER-iDS Spark dataflow pipeline over a data set end-to-end
  * (micro-batched stateful window join) and reports the F-score against the
  * Eq. 2 ground truth — the distributed counterpart of the core engine —
  * with `SparkTER.stats`: the batches, the time in Spark jobs and in the
  * driver's window join, and the ledger as `Smoke` prints it:
  *
  *   spark-submit --class repro.jobs.SparkPipelineJob <jar> [dataset] [batchTs]
  */
object SparkPipelineJob {
  def main(args: Array[String]): Unit = {
    val profile = args.headOption.map(ERSynth.byName).getOrElse(ERSynth.Citations)
    val batchTs = args.lift(1).map(_.toInt).getOrElse(25)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("ter-ids-spark")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      val cfg = ExpConfig(profile, w = 300, maxSteps = 400)
      val b   = Harness.base(profile)
      val ter = new SparkTER(spark, b.profile.d,
        Harness.rules(profile, cfg.eta, UseCDD),
        Harness.repo(profile, cfg.eta),
        Harness.pivots(profile, cfg.eta),
        b.topicVocab,
        Params(ERSynth.defaultKeywords(b), cfg.gamma, cfg.alpha, cfg.w))
      val (sa, sb) = ERSynth.mask(b, cfg.xi, cfg.m)
      val t0    = System.nanoTime()
      val found = ter.runStreams(Seq(sa.take(cfg.maxSteps), sb.take(cfg.maxSteps)), batchTs)
      val secs  = (System.nanoTime() - t0) / 1e9
      val truth = Harness.groundTruth(cfg)
        .filter { case (ra, rb) => ra / 2 < cfg.maxSteps && rb / 2 < cfg.maxSteps }
      val prf = Metrics.prf(found, truth)
      val st  = ter.stats
      println(f"dataset=${profile.name} batchTs=$batchTs pairs=${found.size} " +
        f"P=${prf.precision}%.4f R=${prf.recall}%.4f F=${prf.f}%.4f wall=${secs}%.1fs " +
        f"batches=${st.batches} job=${st.jobNanos / 1e9}%.2fs match=${st.matchNanos / 1e9}%.3fs")
      println(Smoke.ledger(st.run))
    } finally spark.stop()
  }
}
