package repro.impute

import org.scalatest.funsuite.AnyFunSuite
import repro.cdd.{DistRange, Rule, ValueEq}
import repro.core.{Pivots, Record, RunStats, TextRef}
import repro.eval.CddEr

/** Eq. (3)/(4) semantics, mirroring the structure of the paper's Examples
  * 3–4 on a textual repository.
  */
class ImputerSpec extends AnyFunSuite {

  // Repository analogous to Table 2: determinants A (constant), B (interval),
  // dependent C. Values are token strings; pairwise distances are chosen so
  // the Example 3 frequency structure carries over:
  //   dist(s1.B, s2.B) = 0.5, dist(s1.C, s2.C) = 0.25, s3 far on B.
  private val rows = Vector(
    Vector("a1", "b1 b2 b3", "c1 c2 c3"),      // s1
    Vector("a1", "b1 b2 b4", "c1 c2 c3 c4"),   // s2
    Vector("a1", "b9 b8 b7", "c9 c8 c7"),      // s3 (far on B)
    Vector("a2", "b1 b2 b3", "z1 z2"),         // s4 (different constant)
  )
  private val repo = new Repo(rows)

  // CDD₁: A B → C, {a1, [0, 0.5], [0, 0.35]}
  private val cdd1 = Rule(2, Map(0 -> ValueEq("a1"), 1 -> DistRange(0.0, 0.5)), 0.0, 0.35)
  private val all  = Imputer.allSamples(repo)
  private val piv  = Pivots(rows.head.map(Vector(_)))
  private val rIncomplete = Record(10, 0, 0, Vector(Some("a1"), Some("b1 b2 b3"), None))

  test("single-CDD imputation gathers candidates from satisfying samples (Eq. 3)") {
    // Samples satisfying cdd1 w.r.t. r: s1 (dist_B 0) and s2 (dist_B 0.5).
    // cand(s1[C]) = cand(s2[C]) = {"c1 c2 c3", "c1 c2 c3 c4"} (dist 0.25).
    // Frequencies {2, 2} → probabilities {0.5, 0.5} — Example 3's structure.
    val dist = Imputer.valueDistribution(rIncomplete, 2, Seq(cdd1), repo, all)
    assert(dist.toMap == Map("c1 c2 c3" -> 0.5, "c1 c2 c3 c4" -> 0.5))
  }

  test("multi-CDD imputation sums frequencies across rules (Eq. 4)") {
    // CDD₂ with a wider dependent interval also reaches s3's domain region? No —
    // its determinant still excludes s3; it widens cand to include nothing new
    // here, so frequencies double but probabilities stay the same.
    val cdd2 = Rule(2, Map(0 -> ValueEq("a1"), 1 -> DistRange(0.0, 0.5)), 0.0, 0.35)
    val d1   = Imputer.valueDistribution(rIncomplete, 2, Seq(cdd1), repo, all)
    val d2   = Imputer.valueDistribution(rIncomplete, 2, Seq(cdd1, cdd2), repo, all)
    assert(d1.toMap == d2.toMap)
  }

  test("a looser rule adds new candidate values with lower probability") {
    val loose = Rule(2, Map(0 -> ValueEq("a1")), 0.0, 0.35) // no B constraint → s3 joins
    val dist  = Imputer.valueDistribution(rIncomplete, 2, Seq(cdd1, loose), repo, all).toMap
    assert(dist.contains("c9 c8 c7"))
    assert(dist("c1 c2 c3") > dist("c9 c8 c7"))
  }

  test("editing-rule semantics copies the sample's dependent value exactly") {
    val er   = Rule(2, Map(0 -> ValueEq("a1"), 1 -> ValueEq("b1 b2 b3")), 0.0, 0.0)
    val dist = Imputer.valueDistribution(rIncomplete, 2, Seq(er), repo, all)
    assert(dist == Vector(("c1 c2 c3", 1.0))) // only s1 matches both constants
  }

  test("inapplicable rules contribute nothing") {
    val wrongDep = Rule(1, Map(0 -> ValueEq("a1")), 0.0, 0.3)
    val needMiss = Rule(2, Map(1 -> DistRange(0, 0.5), 0 -> ValueEq("zz")), 0.0, 0.3)
    val dist     = Imputer.valueDistribution(rIncomplete, 2, Seq(wrongDep, needMiss), repo, all)
    assert(dist == Vector((Imputer.missSentinel(10, 2), 1.0)))
  }

  test("sentinel values are unique per (tuple, attribute) and match nothing") {
    val s1 = Imputer.missSentinel(1, 0)
    val s2 = Imputer.missSentinel(2, 0)
    assert(s1 != s2)
    assert(TextRef.jaccardStr(s1, s2) == 0.0)
  }

  test("probabilities sum to ≤ 1 and are sorted by (-p, value)") {
    val loose = Rule(2, Map(0 -> ValueEq("a1")), 0.0, 0.6)
    val dist  = Imputer.valueDistribution(rIncomplete, 2, Seq(cdd1, loose), repo, all)
    assert(dist.map(_._2).sum <= 1.0 + 1e-9)
    assert(dist == dist.sortBy { case (v, p) => (-p, v) })
  }

  test("assembleInstances: cross product with product probabilities") {
    val inst = Imputer.assembleInstances(Vector(
      Vector(("x", 0.6), ("y", 0.4)),
      Vector(("u", 0.5), ("v", 0.5)),
    ))
    assert(inst.size == 4)
    assert(math.abs(inst.map(_.p).sum - 1.0) < 1e-9)
    assert(inst.head == repro.core.Instance(Vector("x", "u"), 0.3) ||
           inst.head == repro.core.Instance(Vector("x", "v"), 0.3))
  }

  test("assembleInstances: deterministic cap keeps the top instances, Σp ≤ 1") {
    val big  = Vector.tabulate(3)(j => Vector.tabulate(8)(i => (s"v$j$i", 1.0 / 8)))
    val inst = Imputer.assembleInstances(big)
    assert(inst.size == Imputer.MaxInstances)
    assert(inst.map(_.p).sum <= 1.0 + 1e-9)
    assert(inst == Imputer.assembleInstances(big)) // deterministic
  }

  test("imputeComplete wraps a complete record as a single certain instance") {
    val r = Record(5, 1, 7, Vector(Some("a"), Some("b"), Some("c")))
    val t = Imputer.imputeComplete(r)
    assert(t.instances == Vector(repro.core.Instance(Vector("a", "b", "c"), 1.0)))
    assertThrows[IllegalArgumentException](Imputer.imputeComplete(rIncomplete))
  }

  test("impute keeps non-missing attributes certain") {
    val t = new ImputePlan(CddEr, Seq(cdd1), repo, piv, Set.empty).sketch(rIncomplete, new RunStats).t
    assert(t.attrDists(0) == Vector(("a1", 1.0)))
    assert(t.attrDists(1) == Vector(("b1 b2 b3", 1.0)))
    assert(t.attrDists(2).size == 2)
  }

  test("imputation books its quality ledger where each value is decided") {
    val plan  = new ImputePlan(CddEr, Seq(cdd1), repo, piv, Set.empty)
    val stats = new RunStats
    plan.sketch(rIncomplete, stats) // two values at p = 0.5, nothing dropped
    plan.sketch(Record(11, 0, 0, Vector(Some("a9"), Some("b1 b2 b3"), None)), stats) // no sample holds a9
    plan.sketch(Record(12, 0, 0, rows(0).map(Some(_))), stats) // complete: not imputed
    Imputer.imputeFromWindow(rIncomplete, Seq.empty, stats) // con+ER without a complete tuple
    assert(stats.imputedTuples == 3 && stats.imputedAttrs == 3 && stats.sentinelFallbacks == 2)
    assert(stats.instanceCapBinds == 0 && stats.droppedMass == 0.0)
    assert(stats.imputeSamplesChecked == 2 * repo.size) // the naive plan scans R for each missing value
  }

  test("imputeFromWindow copies from the most recent complete tuple (con+ER)") {
    val w = Seq((3L, Vector("x", "y", "z")), (9L, Vector("p", "q", "r")), (5L, Vector("m", "n", "o")))
    val t = Imputer.imputeFromWindow(rIncomplete, w, new RunStats)
    assert(t.attrDists(2) == Vector(("r", 1.0))) // from ts=9
    assert(t.attrDists(0) == Vector(("a1", 1.0)))
  }

  test("imputeFromWindow falls back to the sentinel when the window has no complete tuple") {
    val t = Imputer.imputeFromWindow(rIncomplete, Seq.empty, new RunStats)
    assert(t.attrDists(2) == Vector((Imputer.missSentinel(10, 2), 1.0)))
  }
}
