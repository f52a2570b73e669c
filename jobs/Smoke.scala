package repro.jobs

import repro.core.RunStats
import repro.data.ERSynth
import repro.eval._

/** Quick end-to-end sanity run on the smallest data set: prints rule
  * counts, F-score, per-step timings and the ledger (`Smoke.ledger`) for
  * every method.
  * `spark-submit --class repro.jobs.Smoke` (no Spark needed — core only).
  */
object Smoke {
  /** A run's ledger on two lines: pruning power with the refinements the
    * count filter and the overlap bound settled, then imputation quality
    * (imputed values, sentinel share, instance-cap binds, mean dropped mass
    * per imputed tuple). `SparkPipelineJob` prints it too.
    */
  def ledger(s: RunStats): String =
    s"pruning=${s.pruningPower.map { case (k, v) => f"$k=${v * 100}%.2f%%" }.mkString(" ")} " +
      s"settledByFilters=${s.refineSettled}\n" +
      f"imputed=${s.imputedAttrs}%d values in ${s.imputedTuples}%d tuples " +
      f"sentinel=${100.0 * s.sentinelFallbacks / math.max(1L, s.imputedAttrs)}%.1f%% capBinds=${s.instanceCapBinds}%d " +
      f"droppedMass=${s.droppedMass / math.max(1L, s.imputedTuples)}%.4f"

  def main(args: Array[String]): Unit = {
    val profile = args.headOption.map(ERSynth.byName).getOrElse(ERSynth.Citations)
    val cfg     = ExpConfig(profile, w = 300, maxSteps = 400)
    val b       = Harness.base(profile)
    println(s"dataset=${profile.name} nA=${profile.nA} nB=${profile.nB} truth=${Harness.groundTruth(cfg).size}")
    println(s"rules: CDD=${Harness.rules(profile, cfg.eta, repro.core.UseCDD).size} " +
      s"DD=${Harness.rules(profile, cfg.eta, repro.core.UseDD).size} " +
      s"edit=${Harness.rules(profile, cfg.eta, repro.core.UseEdit).size}")
    // JIT warm-up: run every method once untimed on a short prefix.
    val warm = cfg.copy(maxSteps = 150)
    Method.all.foreach(Harness.run(_, warm))
    Method.all.foreach { m =>
      val t0 = System.nanoTime()
      val r  = Harness.run(m, cfg)
      val el = (System.nanoTime() - t0) / 1e9
      println(f"${m.name}%-8s F=${r.prf.f}%.4f P=${r.prf.precision}%.4f R=${r.prf.recall}%.4f " +
        f"found=${r.found.size}%5d ms/step=${r.stats.msPerStep}%.4f wall=${el}%.1fs " +
        f"[cdd=${r.stats.cddSelectNanos / 1e6}%.0f imp=${r.stats.imputeNanos / 1e6}%.0f er=${r.stats.erNanos / 1e6}%.0f]ms")
      ledger(r.stats).linesIterator.foreach(l => println(" " * 9 + l))
    }
  }
}
