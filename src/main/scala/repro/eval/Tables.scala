package repro.eval

import scala.collection.mutable
import repro.cdd.RuleMiner
import repro.core._
import repro.data.ERSynth
import repro.data.ERSynth.Profile
import repro.impute.Repo
import repro.pivot.PivotSelector

/** Builders for every evaluation table/figure of the paper (§6 + App. C),
  * shared by the bench suites (`bench/`) and the spark-submit jobs
  * (`jobs/`). Each builder returns a rendered markdown table plus the raw
  * numbers the benches assert on.
  */
object Tables {

  /** Steps used for the headline experiments (caps Songs' 2000 timestamps)
    * and the parameter sweeps, overridable via environment.
    */
  def mainSteps: Int  = sys.env.getOrElse("BENCH_MAIN_STEPS", "600").toInt
  def sweepSteps: Int = sys.env.getOrElse("BENCH_SWEEP_STEPS", "250").toInt

  private val resultCache = mutable.Map.empty[(String, Method, ExpConfig), RunResult]

  /** Memoized run (benches share the default-parameter grid heavily). */
  def run(m: Method, cfg: ExpConfig): RunResult = synchronized {
    resultCache.getOrElseUpdate((cfg.profile.name, m, cfg), Harness.run(m, cfg))
  }

  @volatile private var warmedUp = false

  /** One short untimed pass of every method so JIT noise does not land on
    * whichever method happens to run first.
    */
  def warmup(): Unit = if (!warmedUp) {
    val cfg = ExpConfig(ERSynth.Citations, w = 200, maxSteps = 150)
    Method.all.foreach(Harness.run(_, cfg))
    warmedUp = true
  }

  def defaultCfg(p: Profile, maxSteps: Int): ExpConfig = ExpConfig(p, maxSteps = maxSteps)

  // ── Table 4: data sets ──────────────────────────────────────────────────
  final case class T4Row(name: String, nA: Int, nB: Int, matches: Int)
  def table4(): (String, Seq[T4Row]) = {
    val rows = ERSynth.All.map { p =>
      val cfg = defaultCfg(p, Int.MaxValue)
      T4Row(p.name, p.nA, p.nB, Harness.groundTruth(cfg).size)
    }
    val md = Harness.table(
      Seq("Data set", "Source A", "Source B", "Correct matches (Eq. 2)"),
      rows.map(r => Seq(r.name, r.nA.toString, r.nB.toString, r.matches.toString)))
    (md, rows)
  }

  // ── Fig. 4: pruning power ───────────────────────────────────────────────
  def fig4(): (String, Map[String, Map[String, Double]]) = {
    warmup()
    val per = ERSynth.All.map { p =>
      val r = run(TERiDS, defaultCfg(p, mainSteps))
      p.name -> r.stats.pruningPower
    }.toMap
    val strategies = Seq("keyword", "simUB", "probUB", "instancePair")
    val md = Harness.table(
      Seq("Data set") ++ strategies ++ Seq("total"),
      ERSynth.All.map { p =>
        val m = per(p.name)
        Seq(p.name) ++ strategies.map(s => f"${m(s) * 100}%.2f%%") :+ f"${m.values.sum * 100}%.2f%%"
      })
    (md, per)
  }

  // ── Fig. 5(a): F-score vs data sets ─────────────────────────────────────
  def fig5a(): (String, Map[(String, Method), Metrics.PRF]) = {
    warmup()
    val res = (for (p <- ERSynth.All; m <- Method.effectiveness)
      yield (p.name, m) -> run(m, defaultCfg(p, mainSteps)).prf).toMap
    val md = Harness.table(
      Seq("Data set") ++ Method.effectiveness.map(_.name),
      ERSynth.All.map(p => Seq(p.name) ++
        Method.effectiveness.map(m => f"${res((p.name, m)).f * 100}%.2f%%")))
    (md, res)
  }

  // ── Fig. 5(b): wall-clock time vs data sets ─────────────────────────────
  def fig5b(): (String, Map[(String, Method), Double]) = {
    warmup()
    val cells = for (p <- ERSynth.All; m <- Method.all) yield (p, m)
    val res = medianRounds(cells)(c => Harness.run(c._2, defaultCfg(c._1, mainSteps)).stats)
      .map { case ((p, m), rs) => (p.name, m) -> median(rs.map(_.msPerStep)) }
    val md = Harness.table(
      Seq("Data set") ++ Method.all.map(_.name),
      ERSynth.All.map(p => Seq(p.name) ++ Method.all.map(m => f"${res((p.name, m))}%.4f")))
    (md, res)
  }

  // ── Fig. 6: break-up cost of TER-iDS ────────────────────────────────────
  def fig6(): (String, Map[String, (Double, Double, Double)]) = {
    warmup()
    val res = medianRounds(ERSynth.All)(p => Harness.run(TERiDS, defaultCfg(p, mainSteps)).stats).map {
      case (p, rs) =>
        def perStep(nanos: RunStats => Long) = median(rs.map(s => nanos(s) / 1e6 / s.steps))
        p.name -> (perStep(_.cddSelectNanos), perStep(_.imputeNanos), perStep(_.erNanos))
    }
    val md = Harness.table(
      Seq("Data set", "CDD selection (ms)", "imputation (ms)", "ER (ms)"),
      ERSynth.All.map { p =>
        val (c, i, e) = res(p.name)
        Seq(p.name, f"$c%.4f", f"$i%.4f", f"$e%.4f")
      })
    (md, res)
  }

  // ── Parameter sweeps (Figs. 7–10, 13–17) ───────────────────────────────
  /** Runs per timed cell; a cell reports their median. */
  private val SweepRepeats = 3

  /** [[SweepRepeats]] runs of every cell, taken as whole rounds over the
    * cells, so JIT warm-up or a host hiccup that lands on one cell in one
    * round does not decide its value.
    */
  private def medianRounds[K](cells: Seq[K])(run: K => RunStats): Map[K, Seq[RunStats]] = {
    val rounds = Seq.fill(SweepRepeats)(cells.map(run))
    cells.indices.map(i => cells(i) -> rounds.map(_(i))).toMap
  }

  private def median(xs: Seq[Double]): Double = xs.sorted.apply(xs.size / 2)

  /** Sweep one parameter; returns ms/step per (dataset, method, value), each
    * the median of [[medianRounds]].
    */
  def timeSweep(name: String, values: Seq[Double], mk: (Profile, Double) => ExpConfig)
      : (String, Map[(String, Method, Double), Double]) = {
    warmup()
    val cells = for (p <- ERSynth.All; m <- Method.all; v <- values) yield (p, m, v)
    val res = medianRounds(cells)(c => Harness.run(c._2, mk(c._1, c._3)).stats)
      .map { case ((p, m, v), rs) => (p.name, m, v) -> median(rs.map(_.msPerStep)) }
    val md = ERSynth.All.map { p =>
      s"**${p.name}**\n\n" + Harness.table(
        Seq(name) ++ Method.all.map(_.name),
        values.map(v => Seq(v.toString) ++ Method.all.map(m => f"${res((p.name, m, v))}%.4f")))
    }.mkString("\n")
    (md, res)
  }

  /** Sweep one parameter; returns F-score per (dataset, method, value). */
  def fSweep(name: String, values: Seq[Double], mk: (Profile, Double) => ExpConfig)
      : (String, Map[(String, Method, Double), Double]) = {
    warmup()
    val res = (for (p <- ERSynth.All; m <- Method.effectiveness; v <- values)
      yield (p.name, m, v) -> run(m, mk(p, v)).prf.f).toMap
    val md = ERSynth.All.map { p =>
      s"**${p.name}**\n\n" + Harness.table(
        Seq(name) ++ Method.effectiveness.map(_.name),
        values.map(v => Seq(v.toString) ++
          Method.effectiveness.map(m => f"${res((p.name, m, v)) * 100}%.2f%%")))
    }.mkString("\n")
    (md, res)
  }

  def fig7(): (String, Map[(String, Method, Double), Double]) =
    timeSweep("α", DefaultParams.alphas,
      (p, v) => ExpConfig(p, alpha = v, maxSteps = sweepSteps))
  def fig8(): (String, Map[(String, Method, Double), Double]) =
    timeSweep("ρ", DefaultParams.rhos,
      (p, v) => ExpConfig(p, rho = v, maxSteps = sweepSteps))
  def fig9(): (String, Map[(String, Method, Double), Double]) =
    timeSweep("ξ", DefaultParams.xis,
      (p, v) => ExpConfig(p, xi = v, maxSteps = sweepSteps))
  def fig10(): (String, Map[(String, Method, Double), Double]) =
    timeSweep("w", DefaultParams.ws.map(_.toDouble),
      (p, v) => ExpConfig(p, w = v.toInt, maxSteps = sweepSteps))
  def fig13(): (String, Map[(String, Method, Double), Double]) =
    fSweep("ξ", DefaultParams.xis,
      (p, v) => ExpConfig(p, xi = v, maxSteps = sweepSteps))
  def fig14(): (String, Map[(String, Method, Double), Double]) =
    fSweep("η", DefaultParams.etas,
      (p, v) => ExpConfig(p, eta = v, maxSteps = sweepSteps))
  def fig15(): (String, Map[(String, Method, Double), Double]) =
    fSweep("m", DefaultParams.ms.map(_.toDouble),
      (p, v) => ExpConfig(p, m = v.toInt, maxSteps = sweepSteps))
  def fig16(): (String, Map[(String, Method, Double), Double]) =
    timeSweep("η", DefaultParams.etas,
      (p, v) => ExpConfig(p, eta = v, maxSteps = sweepSteps))
  def fig17(): (String, Map[(String, Method, Double), Double]) =
    timeSweep("m", DefaultParams.ms.map(_.toDouble),
      (p, v) => ExpConfig(p, m = v.toInt, maxSteps = sweepSteps))

  /** `f`'s result and its wall time in seconds. */
  private def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  // ── Fig. 11: pivot-selection cost (App. C.1) ───────────────────────────
  def fig11(): (String, Map[(String, Double), Double]) = {
    val etaCost = (for (p <- ERSynth.All; eta <- DefaultParams.etas) yield {
      val repo = ERSynth.repoAt(Harness.base(p), eta)
      (p.name, eta) -> timed(PivotSelector.select(repo))._2
    }).toMap
    val cntCost = (for (p <- ERSynth.All; cnt <- 1 to 5) yield {
      val repo = ERSynth.repoAt(Harness.base(p), DefaultParams.eta)
      (p.name, cnt.toDouble) -> timed(PivotSelector.select(repo, cntMax = cnt, eMin = 2.0))._2
    }).toMap
    val md =
      "(a) vs η\n\n" + Harness.table(
        Seq("η") ++ ERSynth.All.map(_.name),
        DefaultParams.etas.map(e => Seq(e.toString) ++
          ERSynth.All.map(p => f"${etaCost((p.name, e))}%.3f s"))) +
      "\n(b) vs cntMax (eMin = 2.0)\n\n" + Harness.table(
        Seq("cntMax") ++ ERSynth.All.map(_.name),
        (1 to 5).map(c => Seq(c.toString) ++
          ERSynth.All.map(p => f"${cntCost((p.name, c.toDouble))}%.3f s")))
    (md, etaCost ++ cntCost)
  }

  // ── Fig. 12: CDD detection cost (App. C.2) ─────────────────────────────
  def fig12(): (String, Map[String, (Double, Int)]) = {
    val res = ERSynth.All.map { p =>
      val repo = ERSynth.repoAt(Harness.base(p), DefaultParams.eta)
      val (rules, s) = timed(RuleMiner.mineCDDs(repo))
      p.name -> (s, rules.size)
    }.toMap
    val md = Harness.table(
      Seq("Data set", "|R|", "CDD rules", "detection time (s)"),
      ERSynth.All.map { p =>
        val (t, n) = res(p.name)
        Seq(p.name, ERSynth.repoAt(Harness.base(p), DefaultParams.eta).size.toString,
          n.toString, f"$t%.3f")
      })
    (md, res)
  }
}
