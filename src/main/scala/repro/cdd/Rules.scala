package repro.cdd

import repro.core.{Record, Text}

/** Constraint φ[A_x] of a CDD rule on one determinant attribute (Def. 3):
  * either a distance interval on the pairwise Jaccard distance, or a
  * constant value both tuples must equal (editing-rule style).
  */
sealed trait Constraint
final case class DistRange(lo: Double, hi: Double) extends Constraint {
  require(lo >= 0 && lo < hi + 1e-12, s"bad interval [$lo,$hi]")
}
final case class ValueEq(v: String) extends Constraint {
  lazy val tokens: Array[String] = Text.tokens(v)
}

/** A conditional differential dependency `X -> A_dep, φ[X A_dep]` (Def. 3).
  *
  * `det` maps each determinant attribute index to its constraint; `depLo`
  * and `depHi` are the dependent distance interval `A_j.I`. DD rules are
  * the `DistRange`-only special case; editing rules are `ValueEq`-only with
  * `depHi = 0`.
  */
final case class Rule(dep: Int, det: Map[Int, Constraint], depLo: Double, depHi: Double) {
  require(!det.contains(dep), "dependent attribute cannot be a determinant")

  def detAttrs: Set[Int] = det.keySet

  /** Can this rule possibly apply to `r` (all determinants present, dep missing)? */
  def applicableTo(r: Record): Boolean =
    r.attrs(dep).isEmpty && det.keysIterator.forall(x => r.attrs(x).isDefined)

  /** `(r, s) ≍ φ[X]`: does the (record, sample) pair satisfy all determinant
    * constraints? `sTokens(x)` are the sample's token arrays per attribute.
    */
  def satisfiedBy(rTokens: Int => Array[String], sTokens: Int => Array[String]): Boolean =
    det.forall {
      case (x, DistRange(lo, hi)) =>
        val a = rTokens(x)
        val b = sTokens(x)
        // Lemma 4.1: 1 − min/max token count bounds the distance from below
        // (and rounds no higher than the distance), so a pair it puts above
        // `hi` skips the merge.
        val big = math.max(a.length, b.length)
        (big == 0 || 1.0 - math.min(a.length, b.length).toDouble / big <= hi + 1e-9) && {
          val dd = Text.jdist(a, b)
          dd >= lo - 1e-12 && dd <= hi + 1e-12
        }
      case (x, v: ValueEq) =>
        Text.same(rTokens(x), v.tokens) && Text.same(sTokens(x), v.tokens)
    }
}
