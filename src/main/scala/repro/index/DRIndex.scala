package repro.index

import scala.annotation.unused
import repro.cdd.{DistRange, Rule, ValueEq}
import repro.core.{Pivots, Record, Text}
import repro.impute.Repo

/** DR-index `I_R` (§5.1, Fig. 3): an aR-tree over the repository, each
  * sample converted to a d-dimensional point of main-pivot Jaccard
  * distances. Node aggregates carry per-attribute distance intervals to
  * every pivot (main + auxiliary), the only aggregate sample retrieval
  * reads.
  *
  * `finderFor(r)` returns candidate sample indices for imputation using
  * triangle-inequality node pruning; candidates may contain false positives
  * (the imputer re-verifies) but never miss a satisfying sample.
  *
  * `vocab` is unused: keyword presence is computed from the query keywords.
  */
final class DRIndex(repo: Repo, pivots: Pivots, @unused vocab: Set[String]) extends Serializable {
  import DRIndex._

  val d: Int = repo.d

  private def pivotDists(x: Int, tokens: Array[String]): Array[Double] =
    Array.tabulate(pivots.nPivots(x))(a => Text.jdist(tokens, pivots.tokens(x)(a)))

  val tree: ARTree[Int, Agg] = {
    val dists = repo.tokenRows.map(row => Array.tabulate(d)(x => pivotDists(x, row(x))))
    ARTree.build(d, dists.indices.map(i => (MBR.point(dists(i).map(_(0))), i)))(
      i => Agg(dists(i), dists(i)), mergeAgg)
  }

  /** Leaf-visit count of the last query (complexity counter of §5.1). */
  @volatile var lastLeavesVisited: Int = 0

  /** Pivot distances of constant constraints are static per rule — memoize. */
  private val eqCache = new java.util.concurrent.ConcurrentHashMap[(Int, String), Array[Double]]()

  /** Imputation sample finder for one record: prune nodes that cannot
    * contain any sample satisfying the rule's determinant constraints w.r.t.
    * the record. Its per-attribute pivot distances are computed once, shared
    * by every rule application.
    */
  def finderFor(r0: Record): repro.impute.Imputer.SampleFinder = {
    val recDists = Array.tabulate(d)(x => r0.attrs(x).map(v => pivotDists(x, Text.tokens(v))).orNull)
    (rule: Rule, _: Record) => {
      // Determinant x admits samples s with lo ≤ dist(r[x], s[x]) ≤ hi; a
      // constant v admits dist(v, s[x]) = 0.
      val checks = rule.det.toSeq.map {
        case (x, DistRange(lo, hi)) => (x, lo, hi, recDists(x))
        case (x, v: ValueEq)        => (x, 0.0, 0.0, eqCache.computeIfAbsent((x, v.v), _ => pivotDists(x, v.tokens)))
      }
      val out = Vector.newBuilder[Int]
      lastLeavesVisited = tree.search(
        // Triangle inequality: every pivot a has dist(s, piv_a) within hi of
        // pd(a), and the farthest reachable distance pd(a) + dist(s, piv_a)
        // must reach lo.
        keepNode = (_, agg) => checks.forall { case (x, lo, hi, pd) =>
          (0 until pd.length).forall { a =>
            agg.hi(x)(a) >= pd(a) - hi - 1e-9 && agg.lo(x)(a) <= pd(a) + hi + 1e-9 && pd(a) + agg.hi(x)(a) >= lo - 1e-9
          }
        },
        keepEntry = (_, _) => true,
      )(out += _)
      out.result().iterator
    }
  }
}

object DRIndex {
  /** Node aggregate: per-attr per-pivot distance intervals (index 0 = main
    * pivot, equal to the node's MBR).
    */
  final case class Agg(lo: Array[Array[Double]], hi: Array[Array[Double]])

  def mergeAgg(a: Agg, b: Agg): Agg = Agg(
    Array.tabulate(a.lo.length)(x => Array.tabulate(a.lo(x).length)(p => math.min(a.lo(x)(p), b.lo(x)(p)))),
    Array.tabulate(a.hi.length)(x => Array.tabulate(a.hi(x).length)(p => math.max(a.hi(x)(p), b.hi(x)(p)))),
  )
}
