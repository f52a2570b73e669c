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
    * how many instance pairs were checked. `bySignature` marks a refinement
    * that [[testPair]] settled from the token signatures; its other fields
    * are [[refine]]'s, bit for bit.
    */
  final case class Refined(override val matched: Boolean, earlyStopped: Boolean, pairsChecked: Int, pr: Double,
                           bySignature: Boolean)
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

  /** The TER-iDS tuple-pair test: Theorems 4.1, 4.2 and 4.3 in turn, then
    * Theorem 4.4 refinement. `qHasKw` is `q.hasAnyKeyword(k)`, hoisted by
    * callers that test one arrival against many candidates.
    *
    * A pair whose signatures share at most γ attributes has no instance
    * pair above γ, so its refinement adds no probability: it walks the
    * instance pairs for their mass alone, with [[refine]]'s order and
    * stopping tests, and returns [[refine]]'s result without one similarity.
    */
  def testPair(q: TupleSketch, qHasKw: Boolean, c: TupleSketch,
               k: Set[String], gamma: Double, alpha: Double): Outcome =
    if (!qHasKw && !c.hasAnyKeyword(k)) KeywordPruned
    else if (ubSimBySize(q, c) <= gamma || ubSimByPivot(q, c) <= gamma) SimUBPruned
    else if (probUpperBound(q, c, gamma) <= alpha) ProbUBPruned
    else walk(q.t, c.t, k, gamma, alpha, enumerate = sharedAttrs(q, c) > gamma)

  /** Exact TER-iDS probability check (Eq. 2) with Theorem 4.4 early
    * termination: stop as soon as the accumulated probability exceeds α
    * (sound accept — remaining terms are non-negative) or the optimistic
    * upper bound `acc + (1 - processedMass)` drops to ≤ α (sound reject).
    * An instance pair's similarity test stops once the Lemma 4.1 size
    * bounds of its remaining attributes cannot lift it over γ, and the
    * keyword predicate is evaluated only for the few pairs above γ.
    */
  def refine(x: ImputedTuple, y: ImputedTuple, k: Set[String], gamma: Double, alpha: Double): Refined =
    walk(x, y, k, gamma, alpha, enumerate = true)

  /** [[refine]]'s loop. Without `enumerate` no instance pair is tested and
    * `acc` stays 0.0, which is what the tests would give when none exceeds γ.
    */
  private[core] def walk(x: ImputedTuple, y: ImputedTuple, k: Set[String], gamma: Double, alpha: Double,
                   enumerate: Boolean): Refined = {
    val xi      = x.instances
    val yi      = y.instances
    val total   = xi.length * yi.length
    val settled = !enumerate
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
        if (enumerate && a.simExceeds(b, gamma) && (a.hasKeyword(k) || b.hasKeyword(k))) acc += pp
        mass += pp
        checked += 1
        if (acc > alpha) return Refined(matched = true, earlyStopped = checked < total, checked, acc, settled)
        if (acc + (1.0 - mass) <= alpha)
          // "Early" only if enumeration was actually cut short — a reject on
          // the final instance pair is a full refinement, not a Thm 4.4 prune.
          return Refined(matched = false, earlyStopped = checked < total, checked, acc, settled)
        j += 1
      }
      i += 1
    }
    Refined(acc > alpha, earlyStopped = false, checked, acc, settled)
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
