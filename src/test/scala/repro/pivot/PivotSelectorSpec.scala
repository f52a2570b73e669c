package repro.pivot

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Text
import repro.data.ERSynth
import repro.impute.Repo

class PivotSelectorSpec extends AnyFunSuite {

  private def tk(ss: String*): Array[String] = Text.tokens(ss.mkString(" "))

  private lazy val repo = new Repo(ERSynth.generate(ERSynth.Citations).repoPool.take(200))

  test("entropy of a uniform histogram approaches log(P)") {
    // Values at distances filling all buckets evenly is impossible with sets;
    // instead verify monotonicity: constant distances → entropy 0.
    val vals = Vector.fill(50)(tk("a", "b"))
    assert(PivotSelector.entropy(tk("zz"), vals, 10) == 0.0) // all dist 1 → one bucket
  }

  test("entropy is higher for spread distances than for constant ones") {
    val spread   = Vector(tk("p"), tk("p", "q"), tk("p", "q", "r"), tk("x"), tk("p", "x"))
    val constant = Vector.fill(5)(tk("x"))
    val piv      = tk("p", "q")
    assert(PivotSelector.entropy(piv, spread, 10) > PivotSelector.entropy(piv, constant, 10))
  }

  test("jointEntropy of k identical pivots equals single entropy") {
    val vals = Vector(tk("p"), tk("q"), tk("p", "q"), tk("z"))
    val piv  = tk("p")
    val h1   = PivotSelector.entropy(piv, vals, 10)
    val h2   = PivotSelector.jointEntropy(Seq(piv, piv), vals, 10)
    assert(math.abs(h1 - h2) < 1e-12)
  }

  test("jointEntropy never decreases when adding a pivot") {
    val vals = repo.domTokens(0).take(80).toIndexedSeq
    val p1   = repo.domTokens(0).head
    val p2   = repo.domTokens(0)(1)
    assert(PivotSelector.jointEntropy(Seq(p1, p2), vals, 10) >=
      PivotSelector.entropy(p1, vals, 10) - 1e-12)
  }

  test("selectForAttr returns between 1 and cntMax pivots from the domain") {
    (0 until repo.d).foreach { j =>
      val ps = PivotSelector.selectForAttr(repo, j, cntMax = 3, eMin = 1.5)
      assert(ps.nonEmpty && ps.size <= 3)
      ps.foreach(p => assert(repo.doms(j).contains(p)))
      assert(ps.distinct == ps)
    }
  }

  test("selection is deterministic") {
    assert(PivotSelector.select(repo) == PivotSelector.select(repo))
  }

  test("the main pivot maximizes single-pivot entropy among candidates") {
    val main = PivotSelector.select(repo).perAttr(0).head
    // A deliberately terrible pivot (distance 1 to everything) scores lower.
    val vals  = repo.domTokens(0).take(100).toIndexedSeq
    val badH  = PivotSelector.entropy(tk("nonexistenttoken"), vals, PivotSelector.Buckets)
    val mainH = PivotSelector.entropy(Text.tokens(main), vals, PivotSelector.Buckets)
    assert(mainH >= badH)
  }

  test("higher eMin can only request more pivots") {
    val lo = PivotSelector.selectForAttr(repo, 0, cntMax = 4, eMin = 0.0)
    val hi = PivotSelector.selectForAttr(repo, 0, cntMax = 4, eMin = 5.0)
    assert(lo.size <= hi.size)
    assert(lo.size == 1) // eMin=0 is satisfied by the main pivot alone
    assert(hi.size == 4) // entropy can never reach 5 → cntMax pivots
  }

  test("larger repositories cost more to select over (Fig. 11 shape)") {
    val small = new Repo(repo.rows.take(40))
    // Not a strict assertion on time (noisy); just verify both complete and
    // the bigger input does not somehow produce fewer attribute pivots.
    assert(PivotSelector.select(small).perAttr.size == PivotSelector.select(repo).perAttr.size)
  }
}
