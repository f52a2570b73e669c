package repro.cdd

import repro.core.{Record, Text}

/** Constraint φ[A_x] of a CDD rule on one determinant attribute (Def. 3):
  * either a distance interval on the pairwise Jaccard distance, or a
  * constant value both tuples must equal (editing-rule style).
  */
sealed trait Constraint
final case class DistRange(lo: Double, hi: Double) extends Constraint {
  require(lo >= 0 && lo < hi + 1e-12, s"bad interval [$lo,$hi]")

  /** Is Jaccard distance `dd` in `[lo, hi]`, with the 1e-12 slack? */
  def holds(dd: Double): Boolean = dd >= lo - 1e-12 && dd <= hi + 1e-12

  /** The least overlap `i ≤ top` at which two token sets with `n > 0` tokens
    * between them lie within `hi`: the least `i` with
    * `1.0 - i.toDouble / (n - i) <= hi + 1e-12`, which is [[holds]]'s upper
    * test on `Text.jdist` written for the overlap; `top + 1` if no `i ≤ top`
    * qualifies. The left side never rises as `i` grows below `n`, so the
    * answer is `min(needAll(n), top + 1)` for `top < n`, read from a table
    * for `n` below [[DistRange.TableN]] and searched above it.
    */
  def need(n: Int, top: Int): Int =
    if (n > 0 && n < DistRange.TableN && top < n) math.min(needAll(n), top + 1) else search(n, top)

  /** `needAll(n)` is `search(n, n - 1)`, the least overlap within `hi` at
    * any `top`. Built on first use, once per JVM.
    */
  @transient private lazy val needAll: Array[Int] = Array.tabulate(DistRange.TableN)(n => search(n, n - 1))

  /** [[need]] by binary search, one division per step. */
  private[cdd] def search(n: Int, top: Int): Int = {
    var lo = 0
    var hi = top + 1
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (1.0 - mid.toDouble / (n - mid) <= this.hi + 1e-12) hi = mid else lo = mid + 1
    }
    lo
  }
}
object DistRange {

  /** [[DistRange.need]] reads a table for token totals below this. */
  val TableN = 64
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
    * constraints? `r(x)` is the record's probe table on attribute x, `s(x)`
    * the sample's tokens and `sh(x)` their hashes (`Text.hashes`).
    *
    * A `DistRange` asks the probe for the overlap [[DistRange.need]] puts
    * within `hi`, so the probe stops once the sample's misses rule it out,
    * and a sample with too few tokens is not probed (Lemma 4.1). A sample
    * that reaches it gets its exact overlap, so the distance, and with it
    * the decision, is `Text.jdist`'s bit for bit.
    */
  def satisfiedBy(r: Array[Text.Probe], s: Array[Array[String]], sh: Array[Array[Int]]): Boolean =
    det.forall {
      case (x, g: DistRange) =>
        val p = r(x)
        val n = p.size + s(x).length
        if (n == 0) g.holds(0.0) // J(∅, ∅) = 1
        else {
          val need  = g.need(n, math.min(p.size, s(x).length))
          val inter = p.overlap(s(x), sh(x), need)
          inter >= need && g.holds(1.0 - inter.toDouble / (n - inter))
        }
      case (x, v: ValueEq) =>
        Text.same(r(x).tokens, v.tokens) && Text.same(s(x), v.tokens)
    }
}
