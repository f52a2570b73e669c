package repro.terbench

import repro.data.ERSynth
import repro.data.ERSynth.Profile
import repro.eval.ExpConfig

/** One benchmark workload: a scaled, seeded ERSynth profile plus the query
  * and replay geometry.
  *
  *  - `passSteps` timestamps make one pass. Every measured pass replays the
  *    same prefix with a fresh engine, so counts and F-score repeat exactly
  *    and the work per pass is fixed.
  *  - `warmSteps` timestamps are replayed once, untimed, before measuring.
  *  - `checkSteps` timestamps are replayed through the reference engine for
  *    the correctness gate: CDD+ER for the engine, `Engine` for Spark.
  *  - `traceSteps` timestamps are replayed with spans in the traced run.
  *  - `batchTs > 0` sends the workload through `SparkTER.processBatch` in
  *    micro-batches of that many timestamps.
  */
final case class Workload(
    name: String,
    why: String,
    base: Profile,
    scale: Int,
    xi: Double,
    m: Int,
    w: Int,
    eta: Double,
    passSteps: Int,
    warmSteps: Int,
    checkSteps: Int,
    traceSteps: Int,
    batchTs: Int = 0,
) {
  def spark: Boolean = batchTs > 0

  /** Passes measured however long they take: two for the engine, so no run
    * rests on one pass; one for Spark, whose pass alone outlasts a run.
    */
  def minPasses: Int = if (spark) 1 else 2

  /** The scaled profile. Its entities come from the profile's own
    * generation seed; a run's seed picks which values are missing
    * (`ERSynth.mask`). `Harness` memoizes by profile name, so the name
    * carries the scale and the generation seed.
    */
  def profile: Profile = base.copy(
    name = s"${base.name}-x$scale-g${base.seed}",
    nA = base.nA * scale,
    nB = base.nB * scale,
    pool = base.pool * scale,
  )

  def config(p: Profile): ExpConfig = ExpConfig(p, xi = xi, m = m, w = w, eta = eta)

  /** Latency samples are calls (`Engine.step` or `processBatch`); every call
    * of a pass carries the same number of arrivals.
    */
  def callsPerPass: Int = if (spark) passSteps / batchTs else passSteps
}

object Workloads {

  val all: Vector[Workload] = Vector(
    // |R| = 0.1 * 7500 = 750 < Engine.DrIndexMinRepo: the scan path runs,
    // and w = 1000 keeps ~1,700 candidate pairs per step in the ER-grid.
    Workload("er-heavy", "grid traversal, pruning and refinement dominate (w=1000, scan imputation)",
      ERSynth.EBooks, scale = 5, xi = 0.05, m = 1, w = 1000, eta = 0.1,
      passSteps = 3000, warmSteps = 1200, checkSteps = 1000, traceSteps = 1400),
    // |R| = 0.3 * 8000 = 2400 >= Engine.DrIndexMinRepo: the DR-index runs;
    // half the arrivals miss two attributes. w = 400 rather than 100 puts
    // ~90 true pairs in a pass (~25 at w = 100, too few for a steady
    // F-score) while ER stays near a fifth of the time.
    Workload("impute-heavy", "CDD-index, DR-index and imputation dominate (xi=0.5, m=2, |R|=2400)",
      ERSynth.Songs, scale = 2, xi = 0.5, m = 2, w = 400, eta = 0.3,
      passSteps = 2000, warmSteps = 800, checkSteps = 800, traceSteps = 1200),
    // The only workload through repro.spark; the engine indexes are unused.
    Workload("spark-microbatch", "SparkTER micro-batches of 25 timestamps through local[2] Spark",
      ERSynth.Citations, scale = 4, xi = 0.1, m = 1, w = 300, eta = 0.3,
      passSteps = 1000, warmSteps = 250, checkSteps = 1000, traceSteps = 1000, batchTs = 25),
  )

  def byName(n: String): Workload = all.find(_.name == n).getOrElse(
    throw new IllegalArgumentException(s"unknown workload $n (known: ${all.map(_.name).mkString(", ")})"))
}
