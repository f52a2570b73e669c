package repro.data

import scala.util.Random
import repro.core.{Record, Text}
import repro.impute.Repo

/** Synthetic two-source entity-resolution data sets standing in for the five
  * real sets of Table 4 (Citations, Anime, Bikes, EBooks, Songs) — see
  * DESIGN.md §3.1 for the substitution rationale.
  *
  * Generation: a pool of entities, each with canonical per-attribute token
  * sets drawn from per-attribute vocabularies; a fraction of entities carry
  * topic keywords (special `topicNN` tokens) in `topicAttr`. Each source
  * emits perturbed copies of (possibly repeated) entities; the repository R
  * holds complete lightly-perturbed copies of a subset of the pool. Missing
  * values are injected per §6.1: fraction ξ of stream tuples get m random
  * attributes masked. Everything is deterministic in (profile, seed).
  */
object ERSynth {

  /** Per-data-set generation knobs; d = 4 textual attributes throughout.
    *
    * `catPools(j) > 0` makes attribute j categorical: its values come from a
    * shared pool of that many distinct values (venues, genres, years…) with
    * a skewed popularity distribution — the cross-entity value reuse real ER
    * data has, which gives pivot conversion its spread (App. B) and the
    * similarity-UB pruning its bite.
    */
  final case class Profile(
      name: String,
      nA: Int,
      nB: Int,
      pool: Int,                       // number of distinct entities
      vocabPerAttr: Vector[Int],       // vocabulary size per attribute
      tokensPerAttr: Vector[(Int, Int)], // token-count range per attribute value
      catPools: Vector[Int],           // 0 = free text, >0 = categorical pool size
      perturb: Double,                 // per-token substitution prob (drop = half)
      topicAttr: Int,
      topicVocabSize: Int,
      topicRate: Double,               // fraction of entities carrying a topic keyword
      seed: Long,
  ) {
    val d: Int = vocabPerAttr.size
  }

  /** Scaled-down profiles mirroring the paper's data-set characteristics:
    * EBooks-like has a large-token `description` attribute (the paper's
    * stated reason it is slowest); Songs-like is the large self-join-style
    * set. Sizes are ~1/5–1/300 of Table 4 so the full sweep grid runs on
    * one machine; see EXPERIMENTS.md for the shape comparison.
    */
  // Attribute sketches: Citations = (title, authors, venue, year),
  // Anime = (title, genre, type, year), Bikes = (name, city, color, year),
  // EBooks = (title, author, genre, description), Songs = (title, artist,
  // album, year). Venue/genre/type/year/city/color/artist are categorical.
  val Citations: Profile = Profile("Citations", 600, 550, 450,
    Vector(400, 300, 120, 60), Vector((6, 10), (4, 8), (2, 4), (1, 1)),
    Vector(0, 0, 35, 25), 0.10, 0, 12, 0.5, 11)
  val Anime: Profile = Profile("Anime", 700, 700, 500,
    Vector(450, 100, 40, 60), Vector((4, 8), (2, 5), (1, 2), (1, 1)),
    Vector(0, 30, 6, 25), 0.10, 0, 12, 0.5, 12)
  val Bikes: Profile = Profile("Bikes", 600, 900, 550,
    Vector(350, 120, 60, 60), Vector((4, 7), (2, 4), (1, 2), (1, 1)),
    Vector(0, 25, 12, 20), 0.10, 0, 12, 0.5, 13)
  val EBooks: Profile = Profile("EBooks", 600, 900, 550,
    Vector(400, 250, 80, 1500), Vector((4, 8), (3, 6), (1, 3), (25, 40)),
    Vector(0, 0, 25, 0), 0.08, 0, 12, 0.5, 14)
  val Songs: Profile = Profile("Songs", 2000, 2000, 1400,
    Vector(600, 500, 400, 60), Vector((4, 8), (2, 5), (2, 5), (1, 1)),
    Vector(0, 250, 0, 30), 0.10, 0, 12, 0.5, 15)

  val All: Vector[Profile] = Vector(Citations, Anime, Bikes, EBooks, Songs)
  def byName(n: String): Profile = All.find(_.name.equalsIgnoreCase(n)).getOrElse(
    throw new IllegalArgumentException(s"unknown data set $n"))

  /** Base (complete, un-masked) generated data for a profile. */
  final case class Base(
      profile: Profile,
      trueA: Vector[Vector[String]],   // complete attribute values, source A
      trueB: Vector[Vector[String]],
      entityA: Vector[Int],            // entity id per source-A tuple
      entityB: Vector[Int],
      repoPool: Vector[Vector[String]], // complete repository rows (max size)
      topicVocab: Set[String],
  ) {
    def ridA(i: Int): Long = 2L * i       // globally unique rids: A even, B odd
    def ridB(i: Int): Long = 2L * i + 1
  }

  /** Zipf-ish token draw: low token ids are common across entities, like
    * frequent words in real text — this gives pivot-distance histograms
    * actual spread (App. B entropy) and lets token-blocking rule mining see
    * plausibly-similar pairs.
    */
  private def zipfToken(rnd: Random, vocabSize: Int, attr: Int): String = {
    val id = (math.pow(rnd.nextDouble(), 2.0) * vocabSize).toInt.min(vocabSize - 1)
    s"w${attr}t$id"
  }

  private def sampleTokens(rnd: Random, vocabSize: Int, range: (Int, Int), attr: Int): Vector[String] = {
    val k = range._1 + rnd.nextInt(range._2 - range._1 + 1)
    Vector.fill(k)(zipfToken(rnd, vocabSize, attr)).distinct
  }

  private def perturb(rnd: Random, tokens: Vector[String], rate: Double, vocabSize: Int, attr: Int): Vector[String] = {
    val out = tokens.flatMap { t =>
      val u = rnd.nextDouble()
      if (u < rate / 2) None                                // drop
      else if (u < rate) Some(zipfToken(rnd, vocabSize, attr)) // substitute
      else Some(t)
    }
    if (out.isEmpty) tokens.take(1) else out.distinct
  }

  def generate(profile: Profile): Base = {
    val rnd = new Random(profile.seed)
    val p   = profile
    val topicVocab = (0 until p.topicVocabSize).map(i => s"topic$i").toSet
    // Categorical value pools (venue/genre/year…): shared across entities,
    // picked with a skewed popularity distribution.
    val pools: Vector[Vector[Vector[String]]] = p.catPools.zipWithIndex.map { case (n, j) =>
      Vector.fill(math.max(n, 1))(sampleTokens(rnd, p.vocabPerAttr(j), p.tokensPerAttr(j), j))
    }
    def poolPick(j: Int): Vector[String] = {
      val n = p.catPools(j)
      pools(j)((math.pow(rnd.nextDouble(), 1.6) * n).toInt.min(n - 1))
    }
    // Canonical entity values.
    val entities: Vector[Vector[Vector[String]]] = Vector.tabulate(p.pool) { _ =>
      Vector.tabulate(p.d) { j =>
        if (p.catPools(j) > 0) poolPick(j)
        else sampleTokens(rnd, p.vocabPerAttr(j), p.tokensPerAttr(j), j)
      }
    }
    val entityTopic: Vector[Option[String]] = Vector.tabulate(p.pool) { _ =>
      if (rnd.nextDouble() < p.topicRate) Some(s"topic${rnd.nextInt(p.topicVocabSize)}") else None
    }
    def render(e: Int, light: Boolean): Vector[String] = {
      val base = if (light) p.perturb / 2 else p.perturb
      Vector.tabulate(p.d) { j =>
        // Categorical values are copied verbatim far more often (a venue or
        // year string rarely varies between sources).
        val rate = if (p.catPools(j) > 0) base / 3 else base
        var toks = perturb(rnd, entities(e)(j), rate, p.vocabPerAttr(j), j)
        if (j == p.topicAttr) entityTopic(e).foreach(t => toks = toks :+ t)
        toks.mkString(" ")
      }
    }
    // Sources draw entities with repetition (skewed towards low ids, like
    // the multi-match counts of Anime/Bikes/EBooks in Table 4).
    def drawEntity(): Int = {
      val u = rnd.nextDouble()
      (math.pow(u, 1.35) * p.pool).toInt.min(p.pool - 1)
    }
    val entityA = Vector.fill(p.nA)(drawEntity())
    val entityB = Vector.fill(p.nB)(drawEntity())
    val trueA   = entityA.map(render(_, light = false))
    val trueB   = entityB.map(render(_, light = false))
    // Repository pool: complete lightly-perturbed copies of entities, two
    // consecutive rows per entity so every η-slice contains same-entity
    // pairs (the differential structure CDD/DD mining needs). Low entity
    // ids — the ones the skewed stream draw favors — are covered first.
    val repoMax  = ((p.nA + p.nB) * 0.5).toInt
    val repoEnts = math.max(1, repoMax / 2)
    val repoPool = Vector.tabulate(repoMax)(i => render((i / 2) % repoEnts % p.pool, light = true))
    Base(p, trueA, trueB, entityA, entityB, repoPool, topicVocab)
  }

  /** Mask `m` random attributes of a ξ-fraction of tuples (§6.1). */
  def mask(base: Base, xi: Double, m: Int, seed: Long = 99): (Vector[Record], Vector[Record]) = {
    val rnd = new Random(seed)
    def maskSide(truth: Vector[Vector[String]], rid: Int => Long, sid: Int): Vector[Record] =
      truth.zipWithIndex.map { case (vals, i) =>
        val missing: Set[Int] =
          if (rnd.nextDouble() < xi) rnd.shuffle(vals.indices.toList).take(m).toSet
          else Set.empty
        Record(rid(i), sid, i.toLong,
          vals.zipWithIndex.map { case (v, j) => if (missing(j)) None else Some(v) })
      }
    (maskSide(base.trueA, base.ridA, 0), maskSide(base.trueB, base.ridB, 1))
  }

  /** Repository of size η·(|A|+|B|), sliced from the pre-generated pool. */
  def repoAt(base: Base, eta: Double): Repo = {
    val n = math.max(20, ((base.profile.nA + base.profile.nB) * eta).toInt)
    new Repo(base.repoPool.take(math.min(n, base.repoPool.size)))
  }

  /** Ground truth via Eq. (2) over the complete data (the paper's protocol
    * for Anime/Bikes/EBooks): pair (a, b) is a true match iff it co-occurs
    * in some window, at least one side contains a query keyword, and
    * `sim > γ`. Complete tuples are certain, so Pr ∈ {0, 1}.
    */
  def groundTruth(base: Base, keywords: Set[String], gamma: Double, w: Int): Set[(Long, Long)] = {
    val tokA = base.trueA.map(_.map(Text.tokens))
    val tokB = base.trueB.map(_.map(Text.tokens))
    val kw   = keywords.flatMap(k => Text.tokens(k)) // as `Params.keywordTokens`
    val kwA  = tokA.map(_.exists(ts => ts.exists(kw.contains)))
    val kwB  = tokB.map(_.exists(ts => ts.exists(kw.contains)))
    val out  = Set.newBuilder[(Long, Long)]
    var i = 0
    while (i < tokA.length) {
      var j = 0
      while (j < tokB.length) {
        if (math.abs(i - j) < w && (kwA(i) || kwB(j))) {
          var s = 0.0
          var a = 0
          while (a < base.profile.d) { s += Text.jaccard(tokA(i)(a), tokB(j)(a)); a += 1 }
          if (s > gamma) {
            val (ra, rb) = (base.ridA(i), base.ridB(j))
            out += (if (ra < rb) (ra, rb) else (rb, ra)) // normalized like Engine pairs
          }
        }
        j += 1
      }
      i += 1
    }
    out.result()
  }

  /** Default query keywords: the two lowest-numbered topic keywords, giving
    * the ~10% topical-tuple rate that reproduces Fig. 4's keyword-pruning
    * share (77–87% of pairs have no topical side).
    */
  def defaultKeywords(base: Base): Set[String] = Set("topic0", "topic1")
}
