package repro.index

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.cdd.{RuleMiner, ValueEq}
import repro.core.{Pivots, Record}
import repro.data.ERSynth
import repro.impute.{Imputer, Repo}
import repro.pivot.PivotSelector

/** CDD-index and DR-index completeness: index-assisted selection must agree
  * with (CDD-index) or over-approximate (DR-index, later verified) the
  * linear-scan ground truth on real mined rules and generated records.
  */
class IndexesSpec extends AnyFunSuite {

  private lazy val base   = ERSynth.generate(ERSynth.Citations)
  private lazy val repo   = new Repo(base.repoPool.take(240))
  private lazy val rules  = RuleMiner.mineCDDs(repo)
  private lazy val pivots = PivotSelector.select(repo)
  private lazy val d      = repo.d
  private lazy val cddIdx = new CDDIndex(rules, pivots, d)
  private lazy val drIdx  = new DRIndex(repo, pivots, base.topicVocab)

  private def randomRecords(n: Int, xi: Double, m: Int): Seq[Record] =
    ERSynth.mask(base, xi, m)._1.take(n)

  test("CDD-index select equals the linear applicable-rule filter") {
    randomRecords(150, xi = 0.6, m = 1).foreach { r =>
      r.missing.foreach { j =>
        val linear = rules.filter(rule => rule.dep == j && rule.applicableTo(r) &&
          rule.det.forall {
            case (x, v: repro.cdd.ValueEq) => repro.core.Text.same(repro.core.Text.tokens(r.attrs(x).get), v.tokens)
            case _                         => true
          })
        val indexed = cddIdx.select(r, j)
        assert(indexed.sortBy(_.toString) == linear.sortBy(_.toString), s"rid=${r.rid} attr=$j")
      }
    }
  }

  test("CDD-index never selects rules whose determinants are missing in the record") {
    randomRecords(100, xi = 0.9, m = 2).foreach { r =>
      r.missing.foreach { j =>
        cddIdx.select(r, j).foreach(rule => assert(rule.applicableTo(r)))
      }
    }
  }

  test("DR-index finder candidates are a superset of the satisfying samples") {
    val recs = randomRecords(80, xi = 0.8, m = 1).filter(_.missing.nonEmpty)
    assert(recs.nonEmpty)
    recs.foreach { r =>
      val j = r.missing.head
      rules.filter(rule => rule.dep == j && rule.applicableTo(r)).take(6).foreach { rule =>
        val rTok = (x: Int) => r.attrs(x).fold(repro.core.Text.Empty)(repro.core.Text.tokens)
        val satisfying = repo.rows.indices.filter { si =>
          rule.satisfiedBy(rTok, x => repo.tokenRows(si)(x))
        }.toSet
        val candidates = drIdx.finderFor(r)(rule, r).toSet
        assert(satisfying.subsetOf(candidates),
          s"missing=${satisfying -- candidates} rule=$rule rid=${r.rid}")
      }
    }
  }

  test("DR-index-assisted imputation equals linear-scan imputation") {
    for (m <- Seq(1, 2)) {
      val recs = randomRecords(60, xi = 0.7, m = m).filter(_.missing.nonEmpty)
      recs.foreach { r =>
        val linear  = Imputer.impute(r, rules, repo)
        val indexed = Imputer.impute(r, rules, repo, drIndex = Some(drIdx))
        val both    = Imputer.impute(r, rules, repo, Some(cddIdx), Some(drIdx))
        assert(linear.attrDists == indexed.attrDists, s"m=$m rid=${r.rid}")
        assert(linear.instances == indexed.instances)
        assert(linear.attrDists == both.attrDists, s"CDD-index path, m=$m rid=${r.rid}")
        assert(linear.instances == both.instances)
      }
    }
  }

  test("DR-index returns fewer than |R| candidates for DistRange and ValueEq rules") {
    val recs = randomRecords(200, xi = 1.0, m = 1).filter(_.missing.nonEmpty)
    def candidateCounts(constant: Boolean): Seq[Int] = recs.flatMap { r =>
      val j = r.missing.head
      rules.filter(rule => rule.dep == j && rule.applicableTo(r) &&
        rule.det.values.exists(_.isInstanceOf[ValueEq]) == constant).map(rule => drIdx.finderFor(r)(rule, r).size)
    }
    Seq(false, true).foreach { constant =>
      val counts = candidateCounts(constant)
      assert(counts.nonEmpty, s"no applications (constant=$constant)")
      assert(counts.forall(_ < repo.size), s"constant=$constant: ${counts.max} of ${repo.size}")
    }
  }

  test("the DR-index verifies far fewer samples than the scan, with identical distributions") {
    val recs = randomRecords(100, xi = 0.8, m = 2).filter(_.missing.nonEmpty)
    var scanned = 0L
    var indexed = 0L
    recs.foreach { r =>
      val linear = Imputer.impute(r, rules, repo, samplesChecked = scanned += _)
      val viaIdx = Imputer.impute(r, rules, repo, drIndex = Some(drIdx), samplesChecked = indexed += _)
      assert(linear.attrDists == viaIdx.attrDists, s"rid=${r.rid}")
    }
    assert(scanned > 0 && indexed * 10 < scanned, s"index $indexed vs scan $scanned samples checked")
  }
}
