package repro.core

/** The four pruning strategies of §4 (Theorems 4.1–4.4, Lemmas 4.1–4.3).
  *
  * All bounds are proven upper bounds, so every prune is sound: a pruned
  * pair can never satisfy Inequality (2). Property tests cross-check each
  * bound against brute-force enumeration over all instance pairs.
  */
object Pruning {

  /** Lemma 4.1 per-attribute term: similarity UB from token-set size ranges. */
  def ubSimSizeAttr(aMin: Int, aMax: Int, bMin: Int, bMax: Int): Double =
    if (aMin > bMax && aMin > 0) bMax.toDouble / aMin
    else if (bMin > aMax && bMin > 0) aMax.toDouble / bMin
    else 1.0

  /** Lemma 4.1: `ub_sim(r_i, r_j)` summed over attributes, tuple vs tuple. */
  def ubSimBySize(x: TupleSketch, y: TupleSketch): Double = ubSimBySize(x.attrs, y.attrs)

  /** Lemma 4.1 over per-attribute aggregates (a tuple's or an ER-grid cell's). */
  def ubSimBySize(x: Vector[AttrSketch], y: Vector[AttrSketch]): Double = {
    var s = 0.0
    var k = 0
    while (k < x.length) {
      val a = x(k)
      val b = y(k)
      s += ubSimSizeAttr(a.sizeMin, a.sizeMax, b.sizeMin, b.sizeMax)
      k += 1
    }
    s
  }

  /** Lemma 4.2 gap term: min possible |X_k - Y_k| given interval bounds. */
  def minDistGap(lo1: Double, hi1: Double, lo2: Double, hi2: Double): Double =
    if (lo1 > hi2) lo1 - hi2
    else if (lo2 > hi1) lo2 - hi1
    else 0.0

  /** Lemma 4.2: `ub_sim = d - Σ_k min_dist_k` via pivots. Every pivot shared
    * by both sketches on an attribute yields a valid lower bound of the
    * pairwise distance (triangle inequality), so we take the largest gap.
    */
  def ubSimByPivot(x: TupleSketch, y: TupleSketch): Double = ubSimByPivot(x.attrs, y.attrs)

  /** Lemma 4.2 over per-attribute aggregates (a tuple's or an ER-grid cell's). */
  def ubSimByPivot(x: Vector[AttrSketch], y: Vector[AttrSketch]): Double = {
    var s = 0.0
    var k = 0
    while (k < x.length) {
      val a    = x(k)
      val b    = y(k)
      val nPiv = math.min(a.distLo.length, b.distLo.length)
      var gap  = 0.0
      var p    = 0
      while (p < nPiv) {
        val g = minDistGap(a.distLo(p), a.distHi(p), b.distLo(p), b.distHi(p))
        if (g > gap) gap = g
        p += 1
      }
      s += 1.0 - gap
      k += 1
    }
    s
  }

  /** The per-attribute Lemma 4.1/4.2 inputs in the one array [[ubSim]]
    * reads, attribute after attribute: sizeMin, sizeMax, the pivot count n,
    * then n (distLo, distHi) pairs.
    */
  def packBounds(sizeMin: Array[Int], sizeMax: Array[Int],
                 distLo: Array[Array[Double]], distHi: Array[Array[Double]]): Array[Double] = {
    var n = 0
    var j = 0
    while (j < distLo.length) { n += 3 + 2 * distLo(j).length; j += 1 }
    val b = new Array[Double](n)
    var i = 0
    j = 0
    while (j < distLo.length) {
      val lo = distLo(j)
      val hi = distHi(j)
      b(i) = sizeMin(j); b(i + 1) = sizeMax(j); b(i + 2) = lo.length
      i += 3
      var p = 0
      while (p < lo.length) { b(i) = lo(p); b(i + 1) = hi(p); i += 2; p += 1 }
      j += 1
    }
    b
  }

  /** Theorem 4.2's bound from two packed bound arrays ([[packBounds]]: a
    * sketch's `bounds` or an ER-grid cell's): the smaller of the Lemma 4.1
    * and Lemma 4.2 sums, both taken in one pass. Each sum runs in attribute
    * order with [[ubSimBySize]]'s and [[ubSimByPivot]]'s terms, so it equals
    * the Vector form bit for bit, and `ubSim(x, y) <= γ` is their `||`.
    */
  def ubSim(x: Array[Double], y: Array[Double]): Double = {
    var bySize = 0.0
    var byPiv  = 0.0
    var i      = 0
    var j      = 0
    while (i < x.length) {
      val aMin = x(i)
      val aMax = x(i + 1)
      val bMin = y(j)
      val bMax = y(j + 1)
      bySize += (if (aMin > bMax && aMin > 0) bMax / aMin else if (bMin > aMax && bMin > 0) aMax / bMin else 1.0)
      val nx   = x(i + 2).toInt
      val ny   = y(j + 2).toInt
      val nPiv = math.min(nx, ny)
      var gap  = 0.0
      var p    = 0
      while (p < nPiv) {
        val g = minDistGap(x(i + 3 + 2 * p), x(i + 4 + 2 * p), y(j + 3 + 2 * p), y(j + 4 + 2 * p))
        if (g > gap) gap = g
        p += 1
      }
      byPiv += 1.0 - gap
      i += 3 + 2 * nx
      j += 3 + 2 * ny
    }
    math.min(bySize, byPiv)
  }

  /** Lemma 4.3: Paley–Zygmund-based probability upper bound w.r.t. the main
    * pivot. X/Y are the (random) summed distances of the two imputed tuples
    * to the pivot; E/lb/ub come from the tuple sketches.
    */
  def pzUpperBound(d: Int, gamma: Double,
                   eX: Double, lbX: Double, ubX: Double,
                   eY: Double, lbY: Double, ubY: Double): Double = {
    val dg = d - gamma
    if (lbX >= ubY - 1e-12) {
      val den   = eX - eY
      val range = ubX - lbY
      if (den > 1e-12 && range > 1e-12 && dg >= 0 && dg <= den) {
        val th = dg / den
        1.0 - (1.0 - th) * (1.0 - th) * den / range
      } else 1.0
    } else if (lbY >= ubX - 1e-12) {
      val den   = eY - eX
      val range = ubY - lbX
      if (den > 1e-12 && range > 1e-12 && dg >= 0 && dg <= den) {
        val th = dg / den
        1.0 - (1.0 - th) * (1.0 - th) * den / range
      } else 1.0
    } else 1.0
  }

  /** Theorem 4.3 applied to two sketches via the main pivot (index 0). */
  def probUpperBound(x: TupleSketch, y: TupleSketch, gamma: Double): Double =
    pzUpperBound(x.d, gamma, x.eMain, x.lbMain, x.ubMain, y.eMain, y.lbMain, y.ubMain)

  /** How the Theorem 4.1 → 4.4 cascade ended for one tuple pair. The three
    * bound prunes are shared objects, so a pruned pair allocates nothing.
    */
  sealed abstract class Outcome {
    def matched: Boolean = false
  }
  case object KeywordPruned extends Outcome // Theorem 4.1
  case object SimUBPruned   extends Outcome // Theorem 4.2
  case object ProbUBPruned  extends Outcome // Theorem 4.3

  /** Refinement outcome: whether the pair matches, whether Theorem 4.4 cut
    * the enumeration short (instance-pair-level prune / early accept), and
    * how many instance pairs were checked. `settled` marks a refinement that
    * [[testPair]] settled without a similarity test, by the count filter
    * ([[sharedAttrs]]) or the overlap bound ([[overlapBound]]); its other
    * fields are [[refine]]'s, bit for bit.
    */
  final case class Refined(override val matched: Boolean, earlyStopped: Boolean, pairsChecked: Int, pr: Double,
                           settled: Boolean)
      extends Outcome

  /** The attributes on which the two sketches' token signatures share a bit
    * (`TupleSketch.sig`). On every other attribute each instance pair has
    * Jaccard exactly 0, and no term exceeds 1, so every instance pair's
    * in-order similarity sum is at most this count, in floating point too:
    * the count filter of ScanCount (Li, Lu and Lu, ICDE 2008) over the
    * bitmap signatures of Sandes, Teodoro and Melo (Inf. Syst. 2020).
    */
  def sharedAttrs(x: TupleSketch, y: TupleSketch): Int = {
    val a = x.sig
    val b = y.sig
    var n = 0
    var j = 0
    while (j < a.length) {
      val end = j + TupleSketch.SigWords
      var w   = j
      while (w < end && (a(w) & b(w)) == 0) w += 1
      if (w < end) n += 1
      j = end
    }
    n
  }

  /** An upper bound of every instance pair's in-order similarity sum, from
    * the union hashes (`TupleSketch.unionHashes`): the overlap and size
    * filtering of PPJoin (Xiao et al., WWW 2008) per attribute. Attribute
    * j's term is 1 where both sketches may be empty, 0 where their
    * signatures share no bit, and otherwise `min(1, u / max(sizeMin_x,
    * sizeMin_y))`, where u is the multiset intersection of the two hash
    * lists, at least the tokens the two tuples may share on j. An instance
    * pair's term `I / (|a| + |b| − I)` is at most `I / max(|a|, |b|)`, so at
    * most this term; rounded division and addition are monotone, and the
    * terms are summed in `Instance.simExceeds`' order, so no instance pair's
    * sum exceeds the bound in floating point either.
    *
    * The sum stops once it exceeds `gamma`, and once the attributes left,
    * at most 1 each, cannot lift it over `gamma` (with `simExceeds`' 1e-9
    * margin, returning `gamma`). A sketch without union hashes claims
    * nothing: the bound is `Double.PositiveInfinity`.
    */
  def overlapBound(x: TupleSketch, y: TupleSketch, gamma: Double): Double = {
    val hx = x.unionHashes
    val hy = y.unionHashes
    if (hx == null || hy == null) return Double.PositiveInfinity
    val bx = x.bounds
    val by = y.bounds
    val sx = x.sig
    val sy = y.sig
    var s  = 0.0
    var i  = 0
    var k  = 0
    var j  = 0
    while (j < hx.length) {
      if (s + (hx.length - j) <= gamma - 1e-9) return gamma
      val w = TupleSketch.SigWords * j
      if ((sx(w) & sy(w) & 1L) != 0) s += 1.0
      else {
        var shared = false
        var v      = w
        while (v < w + TupleSketch.SigWords) { shared ||= (sx(v) & sy(v)) != 0; v += 1 }
        if (shared) {
          val a = hx(j)
          val b = hy(j)
          var u = 0
          var p = 0
          var q = 0
          while (p < a.length && q < b.length) {
            if (a(p) < b(q)) p += 1
            else if (a(p) > b(q)) q += 1
            else { u += 1; p += 1; q += 1 }
          }
          s += math.min(1.0, u / math.max(bx(i), by(k)))
        }
      }
      if (s > gamma) return s
      i += 3 + 2 * bx(i + 2).toInt
      k += 3 + 2 * by(k + 2).toInt
      j += 1
    }
    s
  }

  /** The TER-iDS tuple-pair test: Theorems 4.1, 4.2 and 4.3 in turn, then
    * Theorem 4.4 refinement. `qHasKw` is `q.hasAnyKeyword(k)`, hoisted by
    * callers that test one arrival against many candidates.
    *
    * A pair whose signatures share at most γ attributes, or whose overlap
    * bound is at most γ, has no instance pair above γ, so its refinement
    * adds no probability: it walks the instance probabilities for their
    * mass alone ([[settle]]) and returns [[refine]]'s result without one
    * similarity.
    */
  def testPair(q: TupleSketch, qHasKw: Boolean, c: TupleSketch,
               k: Set[String], gamma: Double, alpha: Double): Outcome =
    if (!qHasKw && !c.hasAnyKeyword(k)) KeywordPruned
    else if (ubSim(q.bounds, c.bounds) <= gamma) SimUBPruned
    else if (probUpperBound(q, c, gamma) <= alpha) ProbUBPruned
    else if (sharedAttrs(q, c) <= gamma || overlapBound(q, c, gamma) <= gamma) settle(q.probs, c.probs, alpha)
    else refine(q.t, c.t, k, gamma, alpha)

  /** Exact TER-iDS probability check (Eq. 2) with Theorem 4.4 early
    * termination: stop as soon as the accumulated probability exceeds α
    * (sound accept — remaining terms are non-negative) or the optimistic
    * upper bound `acc + (1 - processedMass)` drops to ≤ α (sound reject).
    * An instance pair's similarity test stops once the Lemma 4.1 size
    * bounds of its remaining attributes cannot lift it over γ, and the
    * keyword predicate is evaluated only for the few pairs above γ.
    */
  def refine(x: ImputedTuple, y: ImputedTuple, k: Set[String], gamma: Double, alpha: Double): Refined = {
    val xi      = x.instances
    val yi      = y.instances
    val total   = xi.length * yi.length
    var acc     = 0.0
    var mass    = 0.0
    var checked = 0
    var i       = 0
    while (i < xi.length) {
      val a = xi(i)
      var j = 0
      while (j < yi.length) {
        val b  = yi(j)
        val pp = a.p * b.p
        if (a.simExceeds(b, gamma) && (a.hasKeyword(k) || b.hasKeyword(k))) acc += pp
        mass += pp
        checked += 1
        if (acc > alpha) return Refined(matched = true, earlyStopped = checked < total, checked, acc, settled = false)
        if (acc + (1.0 - mass) <= alpha)
          // "Early" only if enumeration was actually cut short — a reject on
          // the final instance pair is a full refinement, not a Thm 4.4 prune.
          return Refined(matched = false, earlyStopped = checked < total, checked, acc, settled = false)
        j += 1
      }
      i += 1
    }
    Refined(acc > alpha, earlyStopped = false, checked, acc, settled = false)
  }

  /** [[refine]]'s result for a pair with no instance pair above γ, from the
    * two tuples' instance probabilities (`TupleSketch.probs`) alone: the
    * same loop, order and stopping tests, with `acc` fixed at 0.0, which is
    * what every similarity test would leave it.
    */
  private[core] def settle(xp: Array[Double], yp: Array[Double], alpha: Double): Refined = {
    val total   = xp.length * yp.length
    val acc     = 0.0
    var mass    = 0.0
    var checked = 0
    var i       = 0
    while (i < xp.length) {
      val a = xp(i)
      var j = 0
      while (j < yp.length) {
        mass += a * yp(j)
        checked += 1
        if (acc > alpha) return Refined(matched = true, earlyStopped = checked < total, checked, acc, settled = true)
        if (acc + (1.0 - mass) <= alpha)
          return Refined(matched = false, earlyStopped = checked < total, checked, acc, settled = true)
        j += 1
      }
      i += 1
    }
    Refined(acc > alpha, earlyStopped = false, checked, acc, settled = true)
  }

  /** Naive exact probability (Eq. 2), no early stop — the straightforward
    * method's inner loop, used by the non-indexed baselines. It evaluates
    * the similarity of EVERY instance pair before testing the keyword
    * predicate: exploiting the keyword to skip the similarity would already
    * be Theorem 4.1, which the straightforward method does not have.
    */
  def prExact(x: ImputedTuple, y: ImputedTuple, k: Set[String], gamma: Double): (Double, Int) = {
    var acc     = 0.0
    var checked = 0
    x.instances.foreach { mi =>
      val mikw = mi.hasKeyword(k)
      y.instances.foreach { mj =>
        val s       = mi.sim(mj)
        val topical = mikw || mj.hasKeyword(k)
        if (topical && s > gamma) acc += mi.p * mj.p
        checked += 1
      }
    }
    (acc, checked)
  }
}
