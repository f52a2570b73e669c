package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.ERSynth
import repro.eval._

/** End-to-end engine semantics: the indexed TER-iDS pipeline must produce
  * exactly the same entity set as the naive straightforward method (all
  * prunes sound), window eviction must follow Def. 2, and the pruning
  * counters must be consistent.
  */
class EngineSpec extends AnyFunSuite {

  private val cfg = ExpConfig(ERSynth.Citations, w = 120, maxSteps = 260)

  private lazy val results: Map[Method, RunResult] =
    Method.all.map(m => m -> Harness.run(m, cfg)).toMap

  test("TER-iDS result set equals the naive CDD+ER result set (prunes are sound)") {
    assert(results(TERiDS).found == results(CddEr).found)
  }

  test("Ij+GER result set equals TER-iDS (index join does not change output)") {
    assert(results(IjGer).found == results(TERiDS).found)
  }

  test("every reported pair crosses two streams (even rid + odd rid)") {
    Method.all.foreach { m =>
      results(m).found.foreach { case (a, b) =>
        assert((a % 2) != (b % 2), s"$m reported same-stream pair ($a,$b)")
      }
    }
  }

  test("every reported pair respects the sliding window (Def. 2)") {
    Method.all.foreach { m =>
      results(m).found.foreach { case (a, b) =>
        assert(math.abs(a / 2 - b / 2) < cfg.w, s"$m pair ($a,$b) outside window")
      }
    }
  }

  test("pruning counters partition the candidate pairs") {
    // Every evaluated pair ends in exactly one outcome: one of the four
    // prunes, a full refinement that rejects, or a match.
    Method.all.foreach { m =>
      val s = results(m).stats
      val accounted = s.prunedKeyword + s.prunedSimUB + s.prunedProbUB +
        s.prunedInstancePair + s.refinedFull + s.matchedPairs
      assert(accounted == s.pairsTotal, s"$m accounted=$accounted total=${s.pairsTotal}")
      assert(s.pairsTotal > 0)
    }
  }

  private def found(method: Method, kw: Set[String]): Set[(Long, Long)] =
    Draw(cfg.profile, cfg.eta, cfg.xi, cfg.m, cfg.alpha, cfg.rho, 40, kw, Vector(200, 200, 0), 99L, 1).run(method)

  test("keywords outside the topic vocabulary or in upper case prune soundly (Thm 4.1)") {
    Seq(Set("w1t0"), Set("TOPIC0")).foreach { kw =>
      assert(found(TERiDS, kw) == found(CddEr, kw), s"keywords $kw")
    }
    assert(found(TERiDS, Set("w1t0")).nonEmpty)
    assert(found(TERiDS, Set("TOPIC0")) == found(TERiDS, Set("topic0")))
    assert(found(TERiDS, Set("topic0")).nonEmpty)
  }

  test("upper-case keywords find the same pairs under a Turkish default locale") {
    val saved = java.util.Locale.getDefault
    java.util.Locale.setDefault(java.util.Locale.forLanguageTag("tr"))
    try {
      val upper = found(TERiDS, Set("TOPIC0"))
      assert(upper.nonEmpty && upper == found(TERiDS, Set("topic0")))
    } finally java.util.Locale.setDefault(saved)
  }

  test("TER-iDS pruning counters on a fixed config (Fig. 4)") {
    // Pinned values: a performance change must not move any pruning counter.
    def counters(s: RunStats): Seq[Long] = Seq(s.steps, s.pairsTotal, s.prunedKeyword, s.prunedSimUB,
      s.prunedProbUB, s.prunedInstancePair, s.refinedFull, s.matchedPairs, s.instancePairsChecked)
    assert(counters(results(TERiDS).stats) == Seq(260L, 47860L, 40404L, 267L, 0L, 479L, 6687L, 23L, 7196L))
    // Half the tuples miss two values, so some span several grid cells and
    // the multi-cell dedup is exercised.
    val uncertain = Harness.run(TERiDS, cfg.copy(xi = 0.5, m = 2)).stats
    assert(counters(uncertain) == Seq(260L, 47860L, 41604L, 469L, 0L, 1681L, 4091L, 15L, 7013L))
    // Evictions that keep every cell bound attained leave the cell aggregate
    // exact; only a few cells are recomputed from their members.
    val evictions = 2L * (cfg.maxSteps - cfg.w)
    Seq(results(TERiDS).stats, uncertain).foreach { s =>
      assert(s.gridRecomputes * 10 < evictions, s"${s.gridRecomputes} recomputes for $evictions evictions")
    }
  }

  test("naive engines never report pruning") {
    Seq(CddEr, DdEr, ErEr, ConEr).foreach { m =>
      val s = results(m).stats
      assert(s.prunedKeyword + s.prunedSimUB + s.prunedProbUB + s.prunedInstancePair == 0)
    }
  }

  test("keyword pruning dominates (Fig. 4 shape)") {
    val p = results(TERiDS).stats.pruningPower
    assert(p("keyword") > 0.5, s"keyword pruning only ${p("keyword")}")
    assert(p.values.sum <= 1.0 + 1e-9)
  }

  test("timers are populated for all phases") {
    val s = results(TERiDS).stats
    assert(s.imputeNanos > 0 && s.erNanos > 0 && s.steps > 0)
    assert(results(ConEr).stats.cddSelectNanos == 0) // con+ER never selects rules
  }

  test("past the DR-index cutover TER-iDS verifies far fewer samples than Ij+GER, with the same pairs") {
    val songs = ExpConfig(ERSynth.Songs, eta = 0.5, xi = 0.5, w = 60, maxSteps = 120)
    assert(Harness.repo(songs.profile, songs.eta).size >= Engine.DrIndexMinRepo)
    val ter = Harness.run(TERiDS, songs)
    val ij  = Harness.run(IjGer, songs)
    assert(ter.found == ij.found)
    assert(ter.stats.imputeSamplesChecked > 0 &&
      ter.stats.imputeSamplesChecked * 10 < ij.stats.imputeSamplesChecked,
      s"TER-iDS ${ter.stats.imputeSamplesChecked} vs Ij+GER ${ij.stats.imputeSamplesChecked} samples checked")
  }

  test("the flag-set constructor builds TER-iDS and rejects any other flag set") {
    // Past the DR-index cutover, so a plan without the DR-index would check
    // more samples.
    val songs = ExpConfig(ERSynth.Songs, eta = 0.5, xi = 0.5, w = 60, maxSteps = 120)
    val p     = songs.profile
    val b     = Harness.base(p)
    val (sa, sb) = ERSynth.mask(b, songs.xi, songs.m)
    val params = Params(ERSynth.defaultKeywords(b), songs.gamma, songs.alpha, songs.w)
    def flags(grid: Boolean) = new Engine(p.d, Harness.rules(p, songs.eta, UseCDD),
      Some(new repro.impute.Repo(Harness.repo(p, songs.eta).rows)), Harness.pivots(p, songs.eta), b.topicVocab,
      params, useCddIndex = true, useDrIndex = true, useGrid = grid, usePruning = true, imputeKind = UseCDD)
    def counters(s: RunStats): Seq[Long] = Seq(s.steps, s.pairsTotal, s.prunedKeyword, s.prunedSimUB,
      s.prunedProbUB, s.prunedInstancePair, s.refinedFull, s.matchedPairs, s.instancePairsChecked,
      s.gridRecomputes, s.imputeSamplesChecked)
    val viaFlags  = flags(grid = true)
    val viaMethod = Harness.engineFor(TERiDS, songs)
    Seq(viaFlags, viaMethod).foreach(_.run(Seq(sa, sb), songs.maxSteps))
    assert(viaFlags.method == TERiDS)
    assert(viaFlags.allMatches == viaMethod.allMatches && viaFlags.currentES == viaMethod.currentES)
    assert(counters(viaFlags.stats) == counters(viaMethod.stats))
    assert(viaMethod.stats.imputeSamplesChecked > 0)
    intercept[IllegalArgumentException](flags(grid = false))
  }

  test("window size never exceeds w") {
    val eng = Harness.engineFor(TERiDS, cfg)
    val b   = Harness.base(cfg.profile)
    val (sa, sb) = ERSynth.mask(b, cfg.xi, cfg.m)
    eng.run(Seq(sa, sb), 200)
    assert(eng.windowSize(0) <= cfg.w && eng.windowSize(1) <= cfg.w)
    assert(eng.windowSize(0) == cfg.w) // 200 > w=120 steps → window full
  }

  test("expired pairs leave the current ES but remain in allMatches") {
    val eng = Harness.engineFor(TERiDS, cfg)
    val b   = Harness.base(cfg.profile)
    val (sa, sb) = ERSynth.mask(b, cfg.xi, cfg.m)
    eng.run(Seq(sa, sb), 260)
    assert(eng.currentES.subsetOf(eng.allMatches))
    eng.currentES.foreach { case (a, bb) =>
      assert(math.abs(a / 2 - bb / 2) < cfg.w)
      // both endpoints still inside the final window
      assert(a / 2 >= 260 - cfg.w && bb / 2 >= 260 - cfg.w)
    }
  }

  test("F-score ordering: rule-based imputation beats con+ER (Fig. 5a shape)") {
    assert(results(TERiDS).prf.f >= results(ConEr).prf.f - 0.02)
  }

  test("identical configurations give identical runs (determinism)") {
    val r1 = Harness.run(TERiDS, cfg)
    val r2 = Harness.run(TERiDS, cfg)
    assert(r1.found == r2.found)
    assert(r1.stats.pairsTotal == r2.stats.pairsTotal)
    assert(r1.stats.prunedKeyword == r2.stats.prunedKeyword)
  }

  test("higher alpha can only shrink the result set") {
    val lo = Harness.run(TERiDS, cfg.copy(alpha = 0.1))
    val hi = Harness.run(TERiDS, cfg.copy(alpha = 0.9))
    assert(hi.found.subsetOf(lo.found))
  }

  test("higher gamma can only shrink the result set") {
    val lo = Harness.run(TERiDS, cfg.copy(rho = 0.4))
    val hi = Harness.run(TERiDS, cfg.copy(rho = 0.7))
    assert(hi.found.subsetOf(lo.found))
  }

  test("larger window can only grow the result set") {
    val small = Harness.run(TERiDS, cfg.copy(w = 60))
    val large = Harness.run(TERiDS, cfg.copy(w = 200))
    assert(small.found.subsetOf(large.found))
  }

  test("zero missing rate makes all methods agree exactly") {
    val c0 = cfg.copy(xi = 0.0)
    val rs = Method.all.map(m => Harness.run(m, c0).found)
    assert(rs.distinct.size == 1)
  }

  test("complete-data run matches the ground truth exactly") {
    val c0 = cfg.copy(xi = 0.0)
    val r  = Harness.run(TERiDS, c0)
    assert(math.abs(r.prf.f - 1.0) < 1e-12, s"P=${r.prf.precision} R=${r.prf.recall}")
  }
}
