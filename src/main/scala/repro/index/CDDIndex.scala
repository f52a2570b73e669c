package repro.index

import repro.cdd.{DistRange, Rule, ValueEq}
import repro.core.{Pivots, Record, Text}

/** CDD-index `I_j` (§5.1, Fig. 2): for each dependent attribute j, the rules
  * `X → A_j` are organised as a lattice of determinant-set groups (the `g`
  * combined-rule groups), each with an aR-tree over constraint geometry.
  *
  * Constraint encoding per attribute dimension x (as in the paper):
  *  - `ValueEq(v)`  → the degenerate point `dist(v, piv_1[A_x])` (textual
  *    constants are pivot-converted before indexing);
  *  - `DistRange`   → the full `[0, 1]` interval (pairwise-distance
  *    constraints admit any record location);
  *  - x not in X    → `[-1, 1]`, i.e. the rule also matches records whose
  *    attribute x is missing (encoded as query coordinate −1).
  *
  * A query point for record r uses `dist(r[A_x], piv_1[A_x])` on non-missing
  * attributes and −1 on missing ones, so rules requiring a missing
  * determinant are pruned structurally. Node aggregates bound the dependent
  * intervals `A_j.I` of the rules underneath.
  */
final class CDDIndex(rules: Seq[Rule], pivots: Pivots, d: Int) extends Serializable {
  import CDDIndex._

  private val groups: Map[Int, Vector[(Set[Int], ARTree[Rule, Agg])]] =
    rules.groupBy(_.dep).map { case (j, rs) =>
      val byDet = rs.groupBy(_.detAttrs).toVector.sortBy(_._1.toSeq.sorted.mkString(","))
      j -> byDet.map { case (det, grs) =>
        val items = grs.map { rule =>
          val lo = Array.fill(d)(-1.0)
          val hi = Array.fill(d)(1.0)
          rule.det.foreach {
            case (x, v: ValueEq)  =>
              val c = Text.jdist(v.tokens, pivots.mainTokens(x))
              lo(x) = c; hi(x) = c
            case (x, _: DistRange) =>
              lo(x) = 0.0; hi(x) = 1.0
          }
          (MBR.of(lo, hi), rule)
        }
        (det, ARTree.build[Rule, Agg](d, items)(r => Agg(r.depLo, r.depHi, 1), mergeAgg))
      }
    }

  @volatile var lastLeavesVisited: Int = 0

  /** Select candidate rules to impute missing attribute j of record r
    * (verified exactly at the leaves — constant constraints are re-checked
    * on token sets, not just pivot coordinates).
    */
  def select(r: Record, j: Int): Vector[Rule] = {
    val rTok = r.attrs.map(_.fold(Text.Empty)(Text.tokens))
    val pt   = Array.tabulate(d)(x => if (r.attrs(x).isDefined) Text.jdist(rTok(x), pivots.mainTokens(x)) else -1.0)
    var leaves = 0
    val out    = Vector.newBuilder[Rule]
    groups.getOrElse(j, Vector.empty).foreach { case (_, tree) =>
      leaves += tree.search(
        keepNode = (mbr, _) => mbr.containsPoint(pt),
        keepEntry = (mbr, rule) =>
          mbr.containsPoint(pt) && rule.applicableTo(r) && rule.det.forall {
            case (x, v: ValueEq) => Text.same(rTok(x), v.tokens)
            case _               => true
          },
      )(out += _)
    }
    lastLeavesVisited = leaves
    out.result()
  }

  def ruleCount: Int = rules.size
}

object CDDIndex {
  /** Node aggregate: minimum bounding dependent interval + rule count. */
  final case class Agg(depLo: Double, depHi: Double, count: Int)
  def mergeAgg(a: Agg, b: Agg): Agg =
    Agg(math.min(a.depLo, b.depLo), math.max(a.depHi, b.depHi), a.count + b.count)
}
