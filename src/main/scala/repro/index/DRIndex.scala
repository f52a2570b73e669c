package repro.index

import scala.annotation.unused
import scala.collection.mutable
import repro.cdd.{Constraint, DistRange, Rule, ValueEq}
import repro.core.{JaccardIndex, Pivots, Record, Text}
import repro.impute.Repo

/** DR-index `I_R` (§5.1, Alg. 2): finds the repository samples that may
  * satisfy a rule's determinant constraints with respect to a record, by
  * exact Jaccard range search (one [[JaccardIndex]] per attribute over the
  * samples' token sets).
  *
  *  - `DistRange(lo, hi)` on attribute x: the samples whose `s[x]` may lie
  *    within distance `hi` of `r[x]` (`JaccardIndex.within`: prefix and
  *    size filters); `t = 1 − hi ≤ 0` admits every sample, and an empty
  *    `r[x]` admits only samples whose value has no tokens (`J(∅,∅) = 1`).
  *  - `ValueEq(v)`: nothing unless the record holds `v`'s tokens, else the
  *    samples holding `v`'s rarest token (or the empty-value samples).
  *
  * Candidates may contain false positives (the imputer verifies each with
  * `Rule.satisfiedBy`) but never miss a satisfying sample.
  *
  * `pivots` and `vocab` are unused: the lookups read only tokens.
  */
final class DRIndex(repo: Repo, @unused pivots: Pivots, @unused vocab: Set[String]) extends Serializable {

  val d: Int = repo.d

  /** Per attribute: the range search over the samples' token sets. */
  private val search: Array[JaccardIndex] =
    Array.tabulate(d)(x => new JaccardIndex(repo.tokenRows.iterator.map(_(x)).toArray))

  private def withValue(x: Int, rt: Array[String], v: ValueEq): Array[Int] =
    if (!Text.same(rt, v.tokens)) JaccardIndex.NoIds
    else if (v.tokens.isEmpty) search(x).empties
    else v.tokens.iterator.map(search(x).list).minBy(_.length)

  /** Imputation sample finder for one record. A rule's candidates are the
    * shortest list among its determinants'; `DistRange` lists are memoized
    * per (attribute, `hi`), which the mined rules share.
    */
  def finderFor(r0: Record): repro.impute.Imputer.SampleFinder = finderFor(r0.probes)

  /** [[finderFor]] with the record's values already tokenized (`r0.probes`). */
  def finderFor(rp: Array[Text.Probe]): repro.impute.Imputer.SampleFinder = {
    val memo = mutable.HashMap.empty[(Int, Double), Array[Int]]
    def candidates(x: Int, c: Constraint): Array[Int] = c match {
      case DistRange(_, hi) => memo.getOrElseUpdate((x, hi), search(x).within(rp(x).tokens, hi))
      case v: ValueEq       => withValue(x, rp(x).tokens, v)
    }
    (rule: Rule, _: Record) => {
      var best: Array[Int] = null
      rule.det.foreach { case (x, c) =>
        val ids = candidates(x, c)
        if (ids != null && (best == null || ids.length < best.length)) best = ids
      }
      if (best == null) Iterator.range(0, repo.size) else best.iterator
    }
  }
}
