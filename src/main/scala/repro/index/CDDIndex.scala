package repro.index

import scala.annotation.unused
import repro.cdd.{Rule, ValueEq}
import repro.core.{Pivots, Record, Text}

/** CDD-index `I_j` (§5.1, Fig. 2): for each dependent attribute j, the rules
  * `X → A_j` keyed by their constant constraints.
  *
  * The paper places each rule's constraints in an aR-tree. A `DistRange`
  * determinant admits a record anywhere in `[0, 1]`, so such a tree can
  * exclude a rule only by a `ValueEq` constant that differs from the
  * record's value, which a hash lookup decides. So a rule with no `ValueEq`
  * determinant sits in a plain list, and every other rule in exactly one
  * bucket, keyed by one of its `ValueEq` determinants: the attribute and the
  * constant's tokens as content (so "Foo Bar" and "bar, foo" share a key).
  *
  * `pivots` and `d` are unused: the lookups read only tokens.
  */
final class CDDIndex(rules: Seq[Rule], @unused pivots: Pivots, @unused d: Int) extends Serializable {

  import CDDIndex._

  /** Per dependent j: the rules with no `ValueEq` determinant. */
  private val free: Map[Int, Vector[Rule]] = rules.toVector.filter(keyAttr(_).isEmpty).groupBy(_.dep)

  /** Per dependent j and attribute x: constant tokens → the rules bucketed
    * under their `ValueEq` determinant on x.
    */
  private val keyed: Map[Int, Map[Int, Map[String, Vector[Rule]]]] =
    rules.toVector.filter(keyAttr(_).isDefined).groupBy(_.dep).map { case (j, rs) =>
      j -> rs.groupBy(keyAttr(_).get).map { case (x, xs) =>
        x -> xs.groupBy(rule => key(rule.det(x).asInstanceOf[ValueEq].tokens))
      }
    }

  /** The rules that can impute missing attribute j of record r: those that
    * are applicable to r and whose every constant holds r's value.
    */
  def select(r: Record, j: Int): Vector[Rule] = select(r, r.probes, j)

  /** [[select]] with r's values already tokenized (`r.probes`). */
  def select(r: Record, rp: Array[Text.Probe], j: Int): Vector[Rule] = {
    val out = Vector.newBuilder[Rule]
    free.getOrElse(j, Vector.empty).foreach(rule => if (rule.applicableTo(r)) out += rule)
    keyed.get(j).foreach { byAttr =>
      byAttr.foreach { case (x, byConst) =>
        if (r.attrs(x).isDefined) byConst.getOrElse(key(rp(x).tokens), Vector.empty).foreach { rule =>
          if (rule.applicableTo(r) && rule.det.forall {
                case (y, v: ValueEq) => Text.same(rp(y).tokens, v.tokens)
                case _               => true
              }) out += rule
        }
      }
    }
    out.result()
  }
}

object CDDIndex {
  /** The attribute whose constant buckets a rule: its first `ValueEq`
    * determinant in attribute order, or none.
    */
  private def keyAttr(rule: Rule): Option[Int] =
    rule.det.collect { case (x, _: ValueEq) => x }.minOption

  /** A token array as content; tokens hold no spaces. */
  private def key(tokens: Array[String]): String = tokens.mkString(" ")
}
