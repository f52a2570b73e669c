package repro.index

import scala.annotation.unused
import scala.collection.mutable
import repro.cdd.{Constraint, DistRange, Rule, ValueEq}
import repro.core.{Pivots, Record, Text}
import repro.impute.Repo

/** DR-index `I_R` (§5.1, Alg. 2): finds the repository samples that may
  * satisfy a rule's determinant constraints with respect to a record, by
  * exact Jaccard range search over per-attribute inverted token lists.
  *
  *  - `DistRange(lo, hi)` on attribute x: a sample within distance `hi` has
  *    Jaccard similarity at least `t = 1 − hi`, so it shares at least
  *    `⌈t·|r|⌉` of the record's `|r|` tokens and holds between `t·|r|` and
  *    `|r|/t` tokens. It therefore holds one of any `|r| − ⌈t·|r|⌉ + 1` of
  *    the record's tokens: the lookup probes that many, rarest first (the
  *    prefix filter of All-Pairs/PPJoin), and keeps the probed samples that
  *    pass the size filter. `t ≤ 0` admits every sample; an empty `r[x]`
  *    admits only samples whose value has no tokens (`J(∅,∅) = 1`).
  *  - `ValueEq(v)`: nothing unless the record holds `v`'s tokens, else the
  *    samples holding `v`'s rarest token (or the empty-value samples).
  *
  * Candidates may contain false positives (the imputer verifies each with
  * `Rule.satisfiedBy`) but never miss a satisfying sample.
  *
  * `pivots` and `vocab` are unused: the lookups read only tokens.
  */
final class DRIndex(repo: Repo, @unused pivots: Pivots, @unused vocab: Set[String]) extends Serializable {
  import DRIndex._

  val d: Int = repo.d

  /** Per attribute: token → ascending ids of the samples holding it. */
  private val lists: Array[Map[String, Array[Int]]] = Array.tabulate(d) { x =>
    val acc = mutable.HashMap.empty[String, mutable.ArrayBuilder.ofInt]
    repo.tokenRows.indices.foreach { i =>
      repo.tokenRows(i)(x).foreach(t => acc.getOrElseUpdate(t, new mutable.ArrayBuilder.ofInt) += i)
    }
    acc.view.mapValues(_.result()).toMap
  }

  /** Per attribute: ascending ids of the samples whose value has no tokens. */
  private val emptyLists: Array[Array[Int]] =
    Array.tabulate(d)(x => repo.tokenRows.indices.filter(i => repo.tokenRows(i)(x).isEmpty).toArray)

  /** Per attribute: each sample's token count, for the size filter. */
  private val sizes: Array[Array[Int]] = Array.tabulate(d)(x => repo.tokenRows.map(_(x).length).toArray)

  private def list(x: Int, t: String): Array[Int] = lists(x).getOrElse(t, NoSamples)

  /** Samples within Jaccard distance `hi` of `rt` on attribute x, or `null`
    * when the bound filters nothing.
    */
  private def withinDist(x: Int, rt: Array[String], hi: Double): Array[Int] = {
    val t = 1.0 - hi - Margin
    if (t <= 0.0) null
    else if (rt.isEmpty) emptyLists(x)
    else {
      val n      = rt.length
      val prefix = n - math.ceil(t * n).toInt + 1
      val rarest = rt.sortBy(list(x, _).length) // stable: ties keep token order
      val minS   = t * n
      val maxS   = n / t
      val sz     = sizes(x)
      val hit    = new java.util.BitSet(repo.size)
      var p      = 0
      while (p < prefix) {
        val ids = list(x, rarest(p))
        var k   = 0
        while (k < ids.length) {
          val s = ids(k)
          if (sz(s) >= minS && sz(s) <= maxS) hit.set(s)
          k += 1
        }
        p += 1
      }
      hit.stream().toArray
    }
  }

  private def withValue(x: Int, rt: Array[String], v: ValueEq): Array[Int] =
    if (!Text.same(rt, v.tokens)) NoSamples
    else if (v.tokens.isEmpty) emptyLists(x)
    else v.tokens.iterator.map(list(x, _)).minBy(_.length)

  /** Imputation sample finder for one record. A rule's candidates are the
    * shortest list among its determinants'; `DistRange` lists are memoized
    * per (attribute, `hi`), which the mined rules share.
    */
  def finderFor(r0: Record): repro.impute.Imputer.SampleFinder = {
    val rTok = Array.tabulate(d)(x => r0.attrs(x).fold(Text.Empty)(Text.tokens))
    val memo = mutable.HashMap.empty[(Int, Double), Array[Int]]
    def candidates(x: Int, c: Constraint): Array[Int] = c match {
      case DistRange(_, hi) => memo.getOrElseUpdate((x, hi), withinDist(x, rTok(x), hi))
      case v: ValueEq       => withValue(x, rTok(x), v)
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

object DRIndex {
  /** Lowers `t = 1 − hi` so that rounding in `Text.jdist` (and the 1e-12
    * slack of `Rule.satisfiedBy`) can never put a satisfying sample outside
    * the prefix or size filter.
    */
  val Margin = 1e-9

  private val NoSamples = Array.emptyIntArray
}
