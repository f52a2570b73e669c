package repro.cdd

import org.scalatest.funsuite.AnyFunSuite
import repro.data.ERSynth
import repro.impute.Repo

class RuleMinerSpec extends AnyFunSuite {

  private lazy val repo = new Repo(ERSynth.generate(ERSynth.Citations).repoPool.take(300))

  test("mineCDDs is deterministic in (R, cfg)") {
    assert(RuleMiner.mineCDDs(repo) == RuleMiner.mineCDDs(repo))
  }

  test("mineCDDs yields rules with the Def. 3 form and the CDD dep cap") {
    val rules = RuleMiner.mineCDDs(repo)
    assert(rules.nonEmpty)
    rules.foreach { r =>
      assert(r.dep >= 0 && r.dep < repo.d)
      assert(r.det.nonEmpty && !r.det.contains(r.dep))
      assert(r.depLo == 0.0 && r.depHi <= RuleMiner.MaxDep + 1e-9)
    }
  }

  test("mineCDDs includes both interval and constant constraints") {
    val rules = RuleMiner.mineCDDs(repo)
    assert(rules.exists(_.det.values.exists(_.isInstanceOf[DistRange])))
    assert(rules.exists(_.det.values.exists(_.isInstanceOf[ValueEq])))
  }

  test("mineCDDs combined rules tighten the dependent interval (lattice level 2)") {
    val rules  = RuleMiner.mineCDDs(repo)
    val combos = rules.filter(_.det.size == 2)
    combos.foreach { c =>
      val singles = rules.filter(s => s.det.size == 1 && s.dep == c.dep &&
        c.det.keySet.contains(s.det.keys.head) && c.det(s.det.keys.head) == s.det.values.head)
      if (singles.size == 2)
        assert(c.depHi < singles.map(_.depHi).min + 1e-9)
    }
  }

  test("mineDDs yields interval-only rules with the looser DD cap") {
    val dds = RuleMiner.mineDDs(repo)
    assert(dds.nonEmpty)
    dds.foreach { r =>
      assert(r.det.size == 1)
      assert(r.det.values.forall(_.isInstanceOf[DistRange]))
      assert(r.depHi <= RuleMiner.DdMaxDep + 1e-9)
    }
  }

  test("DD rules are at least as loose as the CDD dep cap allows") {
    val dds  = RuleMiner.mineDDs(repo)
    val cdds = RuleMiner.mineCDDs(repo)
    // Every (det attr, dep) covered by a tight CDD interval rule is also DD-covered.
    val cddPairs = cdds.filter(r => r.det.size == 1 && r.det.values.head.isInstanceOf[DistRange])
      .map(r => (r.det.keys.head, r.dep)).toSet
    val ddPairs = dds.map(r => (r.det.keys.head, r.dep)).toSet
    assert(cddPairs.subsetOf(ddPairs))
  }

  test("mineEditingRules yields constant-only exact-copy rules") {
    val ers = RuleMiner.mineEditingRules(repo)
    assert(ers.nonEmpty)
    ers.foreach { r =>
      assert(r.det.values.forall(_.isInstanceOf[ValueEq]))
      assert(r.depHi == 0.0)
    }
  }

  test("rule lists are sorted and duplicate-free") {
    val rules = RuleMiner.mineCDDs(repo)
    assert(rules.distinct == rules)
  }

  test("a larger repository does not mine fewer constant rules than a tiny one") {
    val small = new Repo(repo.rows.take(40))
    val sr    = RuleMiner.mineCDDs(small)
    val lr    = RuleMiner.mineCDDs(repo)
    assert(lr.nonEmpty && (sr.isEmpty || lr.size >= sr.size / 4))
  }
}
