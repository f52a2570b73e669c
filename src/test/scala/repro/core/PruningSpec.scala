package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Soundness of Theorems 4.1–4.4: every bound must dominate the brute-force
  * quantity on randomized probabilistic tuples — a pruned pair can never be
  * a true TER-iDS answer.
  */
class PruningSpec extends AnyFunSuite {

  private val d      = 3
  private val pivots = Pivots(Vector(Vector("t0 t1", "t2"), Vector("t0 t3"), Vector("t1 t4")))
  private val vocab  = Set("topic0", "topic1")

  private def randomTuple(rnd: Random, rid: Long): (ImputedTuple, TupleSketch) = {
    val dists = Vector.tabulate(d) { j =>
      val n  = 1 + rnd.nextInt(3)
      val vs = Vector.fill(n) {
        val toks = Seq.fill(1 + rnd.nextInt(4))(s"t${rnd.nextInt(6)}") ++
          (if (rnd.nextDouble() < 0.2) Seq(s"topic${rnd.nextInt(2)}") else Seq.empty)
        (toks.distinct.mkString(" "), rnd.nextDouble() + 0.05)
      }
      val norm = vs.map(_._2).sum
      vs.map { case (v, p) => (v, p / norm) }.distinctBy(_._1)
    }
    val t = ImputedTuple(rid, (rid % 2).toInt, rid, dists, repro.impute.Imputer.assembleInstances(dists))
    (t, TupleSketch.of(t, pivots, vocab))
  }

  private def bruteMaxSim(x: ImputedTuple, y: ImputedTuple): Double =
    (for (a <- x.instances; b <- y.instances) yield a.sim(b)).max

  test("Lemma 4.1 per-attribute size bound dominates attribute similarity") {
    val rnd = new Random(11)
    (1 to 300).foreach { _ =>
      val a  = Set.fill(1 + rnd.nextInt(6))(s"t${rnd.nextInt(9)}")
      val b  = Set.fill(1 + rnd.nextInt(6))(s"t${rnd.nextInt(9)}")
      val ub = Pruning.ubSimSizeAttr(a.size, a.size, b.size, b.size)
      assert(Text.jaccard(TextRef.arr(a), TextRef.arr(b)) <= ub + 1e-12)
    }
  }

  test("Lemma 4.1 tuple bound dominates every instance-pair similarity") {
    val rnd = new Random(12)
    (1 to 150).foreach { i =>
      val (x, sx) = randomTuple(rnd, 2 * i)
      val (y, sy) = randomTuple(rnd, 2 * i + 1)
      assert(bruteMaxSim(x, y) <= Pruning.ubSimBySize(sx, sy) + 1e-9)
    }
  }

  test("Lemma 4.2 pivot bound dominates every instance-pair similarity") {
    val rnd = new Random(13)
    (1 to 150).foreach { i =>
      val (x, sx) = randomTuple(rnd, 2 * i)
      val (y, sy) = randomTuple(rnd, 2 * i + 1)
      assert(bruteMaxSim(x, y) <= Pruning.ubSimByPivot(sx, sy) + 1e-9)
    }
  }

  test("Lemma 4.2 worked example (paper Example 6)") {
    // Distances to pivot on 3 attrs: {0.3, 0.3, [0.1,0.2]} vs {0.7, 0.8, [0.7,0.9]}.
    def mk(lo: Array[Double], hi: Array[Double]) =
      TupleSketch(ImputedTuple(0, 0, 0, Vector.fill(3)(Vector(("x", 1.0))), Vector.empty), Set.empty,
        lo.indices.map(k => AttrSketch(1, 1, Array(lo(k)), Array(hi(k)), Array((lo(k) + hi(k)) / 2))).toVector,
        Array.fill(3 * TupleSketch.SigWords)(-1L))
    val s1 = mk(Array(0.3, 0.3, 0.1), Array(0.3, 0.3, 0.2))
    val s2 = mk(Array(0.7, 0.8, 0.7), Array(0.7, 0.8, 0.9))
    assert(math.abs(Pruning.ubSimByPivot(s1, s2) - 1.6) < 1e-12)
  }

  test("minDistGap: disjoint, overlapping, nested intervals") {
    assert(Pruning.minDistGap(0.8, 0.9, 0.1, 0.3) == 0.5)
    assert(Pruning.minDistGap(0.1, 0.3, 0.8, 0.9) == 0.5)
    assert(Pruning.minDistGap(0.1, 0.5, 0.4, 0.9) == 0.0)
    assert(Pruning.minDistGap(0.2, 0.8, 0.3, 0.4) == 0.0)
  }

  test("Theorem 4.3 / Lemma 4.3 bound dominates the true probability") {
    val rnd = new Random(14)
    var checkedNonTrivial = 0
    (1 to 400).foreach { i =>
      val (x, sx) = randomTuple(rnd, 2 * i)
      val (y, sy) = randomTuple(rnd, 2 * i + 1)
      val gamma   = rnd.nextDouble() * d
      val ub      = Pruning.probUpperBound(sx, sy, gamma)
      val (pr, _) = Pruning.prExact(x, y, vocab, gamma) // Pr with keyword χ ≤ Pr{sim>γ}
      assert(pr <= ub + 1e-9, s"pr=$pr ub=$ub gamma=$gamma")
      if (ub < 1.0) checkedNonTrivial += 1
    }
    // The bound must actually engage sometimes, not only return 1.
    assert(checkedNonTrivial > 0)
  }

  test("Lemma 4.3 worked example (paper Example 7)") {
    val ub = Pruning.pzUpperBound(3, 2.8, eX = 0.7, lbX = 0.3, ubX = 1.1, eY = 1.2, lbY = 1.1, ubY = 1.3)
    assert(math.abs(ub - (1.0 - math.pow(1.0 - 0.2 / 0.5, 2) * 0.5 / 1.0)) < 1e-12)
    assert(math.abs(ub - 0.82) < 1e-12)
  }

  test("pzUpperBound returns 1 when interval conditions fail") {
    assert(Pruning.pzUpperBound(3, 2.8, 0.7, 0.3, 1.1, 0.8, 0.5, 1.0) == 1.0) // overlapping
    assert(Pruning.pzUpperBound(3, 0.5, 0.7, 0.3, 1.1, 1.9, 1.2, 2.0) == 1.0) // θ > 1
  }

  test("Theorem 4.3 bounds at least 1 − ρ² when lb ≤ E ≤ ub in [0, d] on both sides") {
    // den = E_X − E_Y ≤ ub_X − lb_Y = range, and den ≤ d makes 1 − θ ≤ γ/d = ρ,
    // so with α < 1 − ρ² the bound cannot prune a pair of full-mass sketches.
    val rnd = new Random(43)
    // A quarter of the points sit on a grid, so ties, 0 and d occur.
    def pt(): Double = if (rnd.nextInt(4) == 0) rnd.nextInt(5) * d / 4.0 else rnd.nextDouble() * d
    var engaged = 0
    (1 to 100000).foreach { i =>
      val x     = Array.fill(3)(pt()).sorted // lb, E, ub
      val y     = Array.fill(3)(pt()).sorted
      val gamma = pt()
      val ub    = Pruning.pzUpperBound(d, gamma, x(1), x(0), x(2), y(1), y(0), y(2))
      val rho   = gamma / d
      assert(ub >= 1 - rho * rho - 1e-12, s"draw $i: x=${x.toSeq} y=${y.toSeq} gamma=$gamma ub=$ub")
      if (ub < 1.0) engaged += 1
    }
    assert(engaged > 1000)
  }

  test("refine agrees with prExact on the match decision") {
    val rnd = new Random(15)
    (1 to 200).foreach { i =>
      val (x, _)  = randomTuple(rnd, 2 * i)
      val (y, _)  = randomTuple(rnd, 2 * i + 1)
      val gamma   = rnd.nextDouble() * d
      val alpha   = rnd.nextDouble()
      val (pr, _) = Pruning.prExact(x, y, vocab, gamma)
      val ref     = Pruning.refine(x, y, vocab, gamma, alpha)
      assert(ref.matched == (pr > alpha), s"pr=$pr alpha=$alpha")
    }
  }

  test("refine: early accept never fires below alpha, early reject never above") {
    val rnd = new Random(16)
    (1 to 200).foreach { i =>
      val (x, _) = randomTuple(rnd, 2 * i)
      val (y, _) = randomTuple(rnd, 2 * i + 1)
      val ref    = Pruning.refine(x, y, vocab, 1.5, 0.5)
      val (pr, total) = Pruning.prExact(x, y, vocab, 1.5)
      if (ref.matched) assert(pr > 0.5)
      else assert(pr <= 0.5 + 1e-12)
      assert(ref.pairsChecked <= total)
      if (!ref.earlyStopped) assert(ref.pairsChecked == total)
    }
  }

  test("refine on single-instance pairs is a full refinement, not a Thm 4.4 prune") {
    val x = ImputedTuple(0, 0, 0, Vector(Vector(("a", 1.0))), Vector(Instance(Vector("a"), 1.0)))
    val y = ImputedTuple(1, 1, 0, Vector(Vector(("b", 1.0))), Vector(Instance(Vector("b"), 1.0)))
    val r = Pruning.refine(x, y, Set("a"), 0.5, 0.5)
    assert(!r.matched && !r.earlyStopped && r.pairsChecked == 1)
  }

  test("Theorem 4.1 logic: zero probability without keywords") {
    val x = ImputedTuple(0, 0, 0, Vector(Vector(("a b", 1.0))), Vector(Instance(Vector("a b"), 1.0)))
    val y = ImputedTuple(1, 1, 0, Vector(Vector(("a b", 1.0))), Vector(Instance(Vector("a b"), 1.0)))
    val (pr, _) = Pruning.prExact(x, y, Set("zz"), 0.5)
    assert(pr == 0.0) // sim = 1 > γ but no keyword on either side
    assert(Pruning.prExact(x, y, Set("a"), 0.5)._1 == 1.0)
  }
}
