package repro.eval

import scala.collection.mutable
import repro.cdd.{Rule, RuleMiner}
import repro.core._
import repro.data.ERSynth
import repro.data.ERSynth.{Base, Profile}
import repro.impute.Repo
import repro.pivot.PivotSelector

/** Table 5 parameter grid; defaults in bold in the paper. */
object DefaultParams {
  val alpha  = 0.5
  val rho    = 0.5    // γ = ρ · d
  val xi     = 0.1
  val w      = 1000
  val eta    = 0.3
  val m      = 1

  val alphas = Seq(0.1, 0.2, 0.5, 0.8, 0.9)
  val rhos   = Seq(0.3, 0.4, 0.5, 0.6, 0.7)
  val xis    = Seq(0.1, 0.2, 0.3, 0.4, 0.5, 0.8)
  val ws     = Seq(500, 800, 1000, 2000, 3000)
  val etas   = Seq(0.1, 0.2, 0.3, 0.4, 0.5)
  val ms     = Seq(1, 2, 3)
}

/** The six compared methods of §6.1, each an `Engine` configuration:
  *
  *  - TER-iDS    = CDD-index + DR-index + ER-grid + all prunings (index join)
  *  - I_j + G_ER = CDD-index + linear repository scan + ER-grid + prunings
  *  - CDD + ER   = linear rule scan + linear repository + naive ER
  *  - DD + ER    = DD rules, otherwise naive
  *  - er + ER    = editing rules, otherwise naive
  *  - con + ER   = window-based imputation (no repository), naive ER
  */
sealed abstract class Method(val name: String, val imputeKind: ImputeKind)
case object TERiDS extends Method("TER-iDS", UseCDD)
case object IjGer  extends Method("Ij+GER", UseCDD)
case object CddEr  extends Method("CDD+ER", UseCDD)
case object DdEr   extends Method("DD+ER", UseDD)
case object ErEr   extends Method("er+ER", UseEdit)
case object ConEr  extends Method("con+ER", UseCon)

object Method {
  val all: Seq[Method]           = Seq(TERiDS, IjGer, CddEr, DdEr, ErEr, ConEr)
  val effectiveness: Seq[Method] = Seq(TERiDS, DdEr, ErEr, ConEr) // Fig. 5a set
}

/** One experiment configuration (a point in the Table 5 grid). */
final case class ExpConfig(
    profile: Profile,
    alpha: Double = DefaultParams.alpha,
    rho: Double = DefaultParams.rho,
    xi: Double = DefaultParams.xi,
    w: Int = DefaultParams.w,
    eta: Double = DefaultParams.eta,
    m: Int = DefaultParams.m,
    maxSteps: Int = Int.MaxValue,
) {
  def gamma: Double = rho * profile.d
}

final case class RunResult(
    method: Method,
    cfg: ExpConfig,
    stats: RunStats,
    found: Set[(Long, Long)],
    prf: Metrics.PRF,
)

/** Shared experiment driver: builds (and memoizes) base data, repositories,
  * mined rules, pivots, and ground truths, then runs any method at any grid
  * point. Every bench suite and spark-submit job goes through here so the
  * same inputs feed every compared method.
  */
object Harness {

  private val baseCache  = mutable.Map.empty[String, Base]
  private val repoCache  = mutable.Map.empty[(String, Double), Repo]
  private val ruleCache  = mutable.Map.empty[(String, Double, String), Vector[Rule]]
  private val pivotCache = mutable.Map.empty[(String, Double), Pivots]
  private val truthCache = mutable.Map.empty[(String, Double, Int), Set[(Long, Long)]]

  def base(p: Profile): Base =
    synchronized(baseCache.getOrElseUpdate(p.name, ERSynth.generate(p)))

  def repo(p: Profile, eta: Double): Repo =
    synchronized(repoCache.getOrElseUpdate((p.name, eta), ERSynth.repoAt(base(p), eta)))

  def rules(p: Profile, eta: Double, kind: ImputeKind): Vector[Rule] = synchronized {
    val key = (p.name, eta, kind.toString)
    ruleCache.getOrElseUpdate(key, kind match {
      case UseCDD  => RuleMiner.mineCDDs(repo(p, eta))
      case UseDD   => RuleMiner.mineDDs(repo(p, eta))
      case UseEdit => RuleMiner.mineEditingRules(repo(p, eta))
      case UseCon  => Vector.empty
    })
  }

  def pivots(p: Profile, eta: Double): Pivots =
    synchronized(pivotCache.getOrElseUpdate((p.name, eta), PivotSelector.select(repo(p, eta))))

  def groundTruth(cfg: ExpConfig): Set[(Long, Long)] = synchronized {
    val b = base(cfg.profile)
    truthCache.getOrElseUpdate((cfg.profile.name, cfg.gamma, cfg.w),
      ERSynth.groundTruth(b, ERSynth.defaultKeywords(b), cfg.gamma, cfg.w))
  }

  def engineFor(method: Method, cfg: ExpConfig): Engine = {
    val b = base(cfg.profile)
    // Fresh Repo per engine: the neighbor memo table starts cold for every
    // method, so no method inherits a warm cache from an earlier run.
    val r = if (method == ConEr) None else Some(new Repo(repo(cfg.profile, cfg.eta).rows))
    new Engine(b.profile.d, rules(cfg.profile, cfg.eta, method.imputeKind), r, pivots(cfg.profile, cfg.eta),
      Params(ERSynth.defaultKeywords(b), cfg.gamma, cfg.alpha, cfg.w), method)
  }

  /** Run one method at one grid point; deterministic in cfg. */
  def run(method: Method, cfg: ExpConfig): RunResult = {
    val b = base(cfg.profile)
    val (sa, sb) = ERSynth.mask(b, cfg.xi, cfg.m)
    val eng = engineFor(method, cfg)
    eng.run(Seq(sa, sb), cfg.maxSteps)
    val found = eng.allMatches
    val truth0 = groundTruth(cfg)
    // When maxSteps truncates the run, restrict the truth to pairs both of
    // whose members arrived, so precision/recall stay comparable.
    val truth =
      if (cfg.maxSteps == Int.MaxValue) truth0
      else truth0.filter { case (ra, rb) => ra / 2 < cfg.maxSteps && rb / 2 < cfg.maxSteps }
    RunResult(method, cfg, eng.stats, found, Metrics.prf(found, truth))
  }

  /** Render a markdown table row-major; shared by benches and jobs. */
  def table(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val sb = new StringBuilder
    sb.append(header.mkString("| ", " | ", " |\n"))
    sb.append(header.map(_ => "---").mkString("| ", " | ", " |\n"))
    rows.foreach(r => sb.append(r.mkString("| ", " | ", " |\n")))
    sb.result()
  }
}
