package repro.core

/** Data model for incomplete data streams (Defs. 1–4).
  *
  * A [[Record]] is a raw (possibly incomplete) stream tuple; an
  * [[ImputedTuple]] is its probabilistic imputed version `r^p` whose
  * mutually exclusive [[Instance]]s each carry an existence probability
  * with `Σ p ≤ 1`; a [[TupleSketch]] adds the aggregate values (§5.2) the
  * pruning theorems and the ER-grid need.
  */
final case class Record(rid: Long, sid: Int, ts: Long, attrs: Vector[Option[String]]) {
  def d: Int                 = attrs.size
  def missing: Vector[Int]   = attrs.indices.filter(attrs(_).isEmpty).toVector
  def isComplete: Boolean    = attrs.forall(_.isDefined)
  def apply(j: Int): Option[String] = attrs(j)

  /** Per attribute, the value's tokens in a probe table (no tokens for a
    * missing value): the record side of `Rule.satisfiedBy`, built once per
    * imputed arrival.
    */
  def probes: Array[Text.Probe] = attrs.iterator.map(v => new Text.Probe(v.fold(Text.Empty)(Text.tokens))).toArray
}

/** One possible complete world of an imputed tuple, with existence prob. */
final case class Instance(attrs: Vector[String], p: Double) {
  /** Per-attribute token arrays (`Text.tokens`), rebuilt after Java
    * serialization rather than written with the instance.
    */
  @transient lazy val tokens: Array[Array[String]] = attrs.iterator.map(Text.tokens).toArray

  /** ϖ(r_{i,m}, K): does this instance contain at least one query keyword?
    * One lookup per keyword and attribute.
    */
  def hasKeyword(k: Set[String]): Boolean =
    k.nonEmpty && k.exists(t => tokens.exists(Text.contains(_, t)))

  /** sim(r_{i,m}, r_{j,m'}) — Eq. (1): sum of per-attribute Jaccard sims. */
  def sim(o: Instance): Double = {
    val a = tokens
    val b = o.tokens
    var s = 0.0
    var j = 0
    while (j < a.length) { s += Text.jaccard(a(j), b(j)); j += 1 }
    s
  }

  /** Per attribute, the tokens' hashes (`Text.hashes`): this instance as
    * the candidate side of [[simExceeds]]. Transient like `tokens`.
    */
  @transient lazy val hashes: Array[Array[Int]] = tokens.map(Text.hashes)

  /** Per attribute, the tokens in a probe table: this instance as the query
    * side of [[simExceeds]]. Transient like `tokens`.
    */
  @transient lazy val probes: Array[Text.Probe] = tokens.map(new Text.Probe(_))

  /** `sim(o) > gamma`, stopping once the attributes probed so far plus the
    * Lemma 4.1 size bounds of the rest cannot exceed `gamma`. Each term is
    * `Text.jaccard`'s, bit for bit, from this instance's probe tables and
    * o's hashes, and the sum runs in `sim`'s order, so a pair that is not
    * cut short gets `sim`'s value.
    */
  def simExceeds(o: Instance, gamma: Double): Boolean = {
    val a  = probes
    val b  = o.tokens
    val bh = o.hashes
    def sizeUB(j: Int): Double = Pruning.ubSimSizeAttr(a(j).size, a(j).size, b(j).length, b(j).length)
    var rest = 0.0
    var j    = 0
    while (j < a.length) { rest += sizeUB(j); j += 1 }
    var s = 0.0
    j = 0
    while (j < a.length) {
      // 1e-9 absorbs the rounding of the running sums.
      if (s + rest <= gamma - 1e-9) return false
      rest -= sizeUB(j)
      s += a(j).jaccard(b(j), bh(j))
      j += 1
    }
    s > gamma
  }
}

/** Imputed (probabilistic) tuple `r^p` (Def. 4).
  *
  * `attrDists(j)` is the per-attribute imputed value distribution (a single
  * `(v, 1.0)` entry for non-missing attributes); `instances` is the
  * (deterministically capped) cross product used for refinement. The
  * per-attribute distributions are exact, so all aggregate bounds derived
  * from them cover every possible instance — capping only affects which
  * instance pairs the refinement enumerates.
  */
final case class ImputedTuple(
    rid: Long,
    sid: Int,
    ts: Long,
    attrDists: Vector[Vector[(String, Double)]],
    instances: Vector[Instance],
) {
  def d: Int = attrDists.size
}

/** Per-attribute aggregates of an imputed tuple (§5.2 cell/tuple aggregates):
  * token-set size interval, and per-pivot Jaccard-distance interval and
  * expectation over the attribute's value distribution. Primitive arrays —
  * this sits on the per-pair hot path of every pruning rule.
  */
final case class AttrSketch(
    sizeMin: Int,
    sizeMax: Int,
    distLo: Array[Double], // per pivot (index 0 = main pivot)
    distHi: Array[Double],
    distE: Array[Double],
)

/** An imputed tuple plus the aggregates every pruning rule reads. `kw` is
  * the set of query keywords some instance may contain. `sig` is the token
  * signature, [[TupleSketch.SigWords]] words per attribute: attribute j's
  * words have a bit set for every token of every possible value of j
  * (`TupleSketch.tokenBit`), and bit 0 set if some possible value has no
  * token. Two sketches whose words on j share no bit share no token on j
  * and do not both have an empty value there, so every instance pair has
  * Jaccard 0 on j (`Pruning.sharedAttrs`). A hand-built sketch with every
  * bit set claims nothing.
  *
  * `unionHashes(j)` lists the `String.hashCode`s of the distinct tokens of
  * all possible values of j, ascending; two distinct tokens with one hash
  * both stay. `Pruning.overlapBound` reads it; a sketch without it (`null`)
  * claims nothing.
  */
final case class TupleSketch(t: ImputedTuple, kw: Set[String], attrs: Vector[AttrSketch], sig: Array[Long],
                             unionHashes: Array[Array[Int]] = null) {
  // Copied out of `t`: the grid traversal reads them for every member.
  val rid: Long = t.rid
  val sid: Int  = t.sid
  def ts: Long  = t.ts
  val d: Int    = t.d

  def hasAnyKeyword(k: Set[String]): Boolean = kw.nonEmpty && k.exists(kw.contains)

  /** lb/ub/E of X = dist(r, piv_main) summed over attributes (Lemma 4.3),
    * summed once: Theorem 4.3 reads them for every pair.
    */
  val lbMain: Double = attrs.iterator.map(_.distLo(0)).sum
  val ubMain: Double = attrs.iterator.map(_.distHi(0)).sum
  val eMain: Double  = attrs.iterator.map(_.distE(0)).sum

  /** `attrs`' Lemma 4.1/4.2 inputs in one array (`Pruning.packBounds`):
    * Theorem 4.2 reads it for every pair (`Pruning.ubSim`).
    */
  val bounds: Array[Double] = {
    val n = attrs.length
    Pruning.packBounds(Array.tabulate(n)(attrs(_).sizeMin), Array.tabulate(n)(attrs(_).sizeMax),
      Array.tabulate(n)(attrs(_).distLo), Array.tabulate(n)(attrs(_).distHi))
  }

  /** The probabilities of `t.instances`, in order: a settled refinement
    * walks these alone (`Pruning.settle`).
    */
  val probs: Array[Double] = {
    val p = new Array[Double](t.instances.length)
    var i = 0
    while (i < p.length) { p(i) = t.instances(i).p; i += 1 }
    p
  }
}

object TupleSketch {

  /** 64-bit words of `sig` per attribute. One word left a third of the
    * er-heavy refinements unsettled and four settled few more than two
    * (EXPERIMENTS.md, "Token signature").
    */
  val SigWords = 2

  private val SigBits = 64 * SigWords

  /** The signature bit of a token with `String.hashCode` h: h mixed as
    * `Text.Probe` mixes it, then mapped onto bits 1 to SigBits − 1 by a
    * multiply-shift; bit 0 marks an empty value.
    */
  private[core] def tokenBit(h: Int): Int =
    1 + ((((h * 0x9E3779B9).toLong & 0xFFFFFFFFL) * (SigBits - 1)) >>> 32).toInt

  /** Build the sketch of an imputed tuple against the selected pivots.
    * `keywords` are the query keywords as tokens (`Params.keywordTokens`),
    * so keyword presence holds for any keyword set, in the topic vocabulary
    * or not. Each possible value is tokenized once, and its tokens feed the
    * size interval, the pivot distances, the keyword set, the signature and
    * the union hashes.
    */
  def of(t: ImputedTuple, pivots: Pivots, keywords: Set[String]): TupleSketch = {
    val kw     = Set.newBuilder[String]
    val sig    = new Array[Long](SigWords * t.d)
    val hashes = new Array[Array[Int]](t.d)
    val attrs = t.attrDists.indices.map { j =>
      val pivTok = pivots.tokens(j)
      val nPiv   = pivTok.length
      var union  = Text.Empty
      var szMin  = Int.MaxValue
      var szMax  = 0
      val lo     = Array.fill(nPiv)(Double.MaxValue)
      val hi     = Array.fill(nPiv)(0.0)
      val e      = Array.fill(nPiv)(0.0)
      t.attrDists(j).foreach { case (v, p) =>
        val tk = Text.tokens(v)
        szMin = math.min(szMin, tk.length)
        szMax = math.max(szMax, tk.length)
        var a = 0
        while (a < nPiv) {
          val dd = Text.jdist(tk, pivTok(a))
          if (dd < lo(a)) lo(a) = dd
          if (dd > hi(a)) hi(a) = dd
          e(a) += dd * p
          a += 1
        }
        keywords.foreach(k => if (Text.contains(tk, k)) kw += k)
        if (tk.length == 0) sig(SigWords * j) |= 1L
        a = 0
        while (a < tk.length) {
          val b = tokenBit(tk(a).hashCode)
          sig(SigWords * j + (b >>> 6)) |= 1L << (b & 63)
          a += 1
        }
        union = Text.union(union, tk)
      }
      if (szMin == Int.MaxValue) szMin = 0
      hashes(j) = Text.hashes(union)
      AttrSketch(szMin, szMax, lo, hi, e)
    }.toVector
    TupleSketch(t, kw.result(), attrs, sig, hashes)
  }
}

/** Selected pivot attribute values (App. B): `perAttr(j).head` is the main
  * pivot for attribute j; the rest are auxiliary pivots.
  */
final case class Pivots(perAttr: Vector[Vector[String]]) {
  val tokens: Vector[Array[Array[String]]] = perAttr.map(_.iterator.map(Text.tokens).toArray)
  def mainTokens(j: Int): Array[String]    = tokens(j)(0)
}
