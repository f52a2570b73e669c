package repro.impute

import repro.cdd.Rule
import repro.core.{Engine, ImputedTuple, Instance, Pivots, Record, RunStats, Text, TupleSketch}
import repro.eval.{ConEr, IjGer, Method, TERiDS}
import repro.index.{CDDIndex, DRIndex}

/** CDD-based imputation of incomplete tuples (§3, Eqs. 3–4), plus the
  * window-based imputer used by the `con+ER` baseline [43].
  *
  * For each missing attribute `A_j`, every applicable rule `X → A_j`
  * contributes, for every repository sample `s` satisfying its determinant
  * constraints w.r.t. `r`, the candidate set `cand(s[A_j])` = domain values
  * within the rule's dependent interval of `s[A_j]`. Candidate frequencies
  * are summed over all rules (Eq. 4) and normalized into existence
  * probabilities.
  *
  * Deviation (documented in DESIGN.md §3.5): the per-attribute distribution
  * keeps the top [[Imputer.MaxValuesPerAttr]] values and the instance cross
  * product keeps the top [[Imputer.MaxInstances]] instances, both in
  * deterministic (-p, value) order, so `Σ p ≤ 1` (Def. 4) holds.
  */
object Imputer {
  val MaxValuesPerAttr = 8
  val MaxInstances     = 16

  /** Candidate sample indices for (rule, record) — the DR-index plugs in
    * here; the naive engines pass every index. The imputer re-verifies each
    * candidate, so finders may return false positives but must not miss any
    * truly satisfying sample.
    */
  type SampleFinder = (Rule, Record) => Iterator[Int]

  def allSamples(repo: Repo): SampleFinder = (_, _) => repo.rows.indices.iterator

  /** Imputed value distribution for missing attribute j of r (Eq. 4).
    * `cached = false` recomputes every `cand(s[A_j])` domain scan — the
    * straightforward method's behavior (the memo table is part of our
    * index/synopsis infrastructure, withheld from the naive baselines).
    * Books into `stats` the missing value, the `Rule.satisfiedBy` calls, the
    * domain values verified with `Text.jdist` and any sentinel fallback.
    */
  def valueDistribution(r: Record, j: Int, rules: Seq[Rule], repo: Repo,
                        finder: SampleFinder, cached: Boolean = true,
                        stats: RunStats = new RunStats): Vector[(String, Double)] =
    valueDistribution(r, r.probes, j, rules, repo, finder, cached, stats)

  /** [[valueDistribution]] with r's probe tables (`r.probes`) built once by
    * the caller, who imputes every missing attribute of r with them.
    */
  def valueDistribution(r: Record, rp: Array[Text.Probe], j: Int, rules: Seq[Rule], repo: Repo,
                        finder: SampleFinder, cached: Boolean, stats: RunStats): Vector[(String, Double)] = {
    val freq = new Array[Long](repo.doms(j).size) // Eq. 4 multiset over dom(A_j)
    val verified: Long => Unit = stats.neighborsChecked += _
    rules.iterator.filter(rule => rule.dep == j && rule.applicableTo(r)).foreach { rule =>
      finder(rule, r).foreach { si =>
        stats.imputeSamplesChecked += 1
        if (rule.satisfiedBy(rp, repo.tokenRows(si), repo.hashRows(si))) {
          if (rule.depHi <= 1e-12) {
            // Editing-rule semantics: copy the sample's dependent value.
            freq(repo.domIndex(j)(repo.rows(si)(j))) += 1L
          } else {
            val cand =
              if (cached) repo.candidates(j, repo.rows(si)(j), rule.depLo, rule.depHi, verified)
              else repo.candidatesUncached(j, repo.rows(si)(j), rule.depLo, rule.depHi, verified)
            var c = 0
            while (c < cand.length) { freq(cand(c)) += 1L; c += 1 }
          }
        }
      }
    }
    stats.imputedAttrs += 1
    normalize(freq, repo, r.rid, j, stats)
  }

  /** When no rule/sample can impute an attribute, the paper's tuple simply
    * has no usable value there. A unique per-(tuple, attribute) sentinel
    * token keeps that semantics: it matches nothing (two failed imputations
    * must not look identical, which empty strings would — `J(∅,∅)=1`).
    */
  def missSentinel(rid: Long, j: Int): String = s"xmiss${rid}a$j"

  private def sentinel(rid: Long, j: Int, stats: RunStats): Vector[(String, Double)] = {
    stats.sentinelFallbacks += 1
    Vector((missSentinel(rid, j), 1.0))
  }

  private def normalize(freq: Array[Long], repo: Repo, rid: Long, j: Int,
                        stats: RunStats): Vector[(String, Double)] = {
    var total = 0L
    var i     = 0
    while (i < freq.length) { total += freq(i); i += 1 }
    if (total == 0L) sentinel(rid, j, stats)
    else {
      val b = Vector.newBuilder[(String, Double)]
      i = 0
      while (i < freq.length) {
        if (freq(i) > 0) b += ((repo.doms(j)(i), freq(i).toDouble / total))
        i += 1
      }
      b.result()
        .sortBy { case (v, p) => (-p, v) }
        .take(MaxValuesPerAttr)
    }
  }

  /** Cross product of per-attribute distributions, capped deterministically. */
  def assembleInstances(attrDists: Vector[Vector[(String, Double)]]): Vector[Instance] =
    assemble(attrDists, new RunStats)

  /** [[assembleInstances]] for one imputed tuple, booked into `stats` with
    * whether the cap binds and the mass it and the per-attribute cap drop.
    */
  private[impute] def assemble(attrDists: Vector[Vector[(String, Double)]], stats: RunStats): Vector[Instance] = {
    stats.imputedTuples += 1
    var combos: Vector[(Vector[String], Double)] = Vector((Vector.empty, 1.0))
    attrDists.foreach { dist =>
      combos = for ((pre, p) <- combos; (v, vp) <- dist) yield (pre :+ v, p * vp)
      // Keep the cap bounded between attributes too; sound because we only
      // ever drop (never re-weight) instances, preserving Σp ≤ 1.
      if (combos.size > MaxInstances * MaxValuesPerAttr)
        combos = combos.sortBy { case (vs, p) => (-p, vs.mkString("")) }.take(MaxInstances * MaxValuesPerAttr)
    }
    if (combos.size > MaxInstances) stats.instanceCapBinds += 1
    val kept = combos
      .sortBy { case (vs, p) => (-p, vs.mkString("")) }
      .take(MaxInstances)
      .map { case (vs, p) => Instance(vs, p) }
    stats.droppedMass += 1.0 - kept.iterator.map(_.p).sum
    kept
  }

  /** A complete record is its own single-instance imputed tuple. */
  def imputeComplete(r: Record): ImputedTuple = {
    require(r.isComplete, s"record ${r.rid} has missing attributes")
    val dists = r.attrs.map(v => Vector((v.get, 1.0)))
    ImputedTuple(r.rid, r.sid, r.ts, dists, Vector(Instance(r.attrs.map(_.get), 1.0)))
  }

  /** `con+ER` imputation [43]: the cited constraint-based cleaner repairs a
    * value from its *sequential* neighbors under distance constraints; on
    * textual streams that amounts to copying from the most recent complete
    * tuple of the same stream — no repository access and, per the paper's
    * observation, no semantic association between attribute values (hence
    * its constant cost and worst accuracy in Fig. 5).
    */
  def imputeFromWindow(r: Record, windowComplete: Iterable[(Long, Vector[String])],
                       stats: RunStats): ImputedTuple = {
    var best: Vector[String] = null
    var bestTs               = Long.MinValue
    windowComplete.foreach { case (ts, cand) =>
      if (ts >= bestTs) { bestTs = ts; best = cand }
    }
    val dists = r.attrs.indices.map { j =>
      r.attrs(j) match {
        case Some(v) => Vector((v, 1.0))
        case None =>
          stats.imputedAttrs += 1
          if (best != null) Vector((best(j), 1.0)) else sentinel(r.rid, j, stats)
      }
    }.toVector
    ImputedTuple(r.rid, r.sid, r.ts, dists, assemble(dists, stats))
  }
}

/** How a rule-based §6.1 method imputes and sketches an arrival (Alg. 2):
  *  - TER-iDS: rules from the CDD-index `I_j`, samples from the DR-index
  *    `I_R` once |R| ≥ `Engine.DrIndexMinRepo` (else the scan), and
  *    `cand(s[A_j])` through the neighbor memo;
  *  - Ij+GER: the CDD-index, the repository scan and the memo;
  *  - CDD+ER, DD+ER, er+ER: the linear rule filter, the scan and the
  *    uncached domain scan of the straightforward method (§2.3).
  * con+ER imputes from the window (`Imputer.imputeFromWindow`) and has no
  * plan. `keywords` are the query keywords as tokens.
  */
final class ImputePlan(method: Method, rules: Seq[Rule], repo: Repo, pivots: Pivots, keywords: Set[String])
    extends Serializable {
  require(method != ConEr, "con+ER imputes from the window, not by rules")

  private val indexed  = method == TERiDS || method == IjGer
  private val cddIndex = if (indexed) Some(new CDDIndex(rules, pivots, repo.d)) else None
  private val drIndex  =
    if (method == TERiDS && repo.size >= Engine.DrIndexMinRepo) Some(new DRIndex(repo, pivots, Set.empty)) else None

  /** Impute r and sketch it. Books into `stats` the rule-selection time
    * (`cddSelectNanos`) and the rest (`imputeNanos`), the samples and domain
    * values verified, and the imputation-quality counters of an incomplete r.
    */
  def sketch(r: Record, stats: RunStats): TupleSketch = {
    require(r.attrs.size == repo.d, s"record ${r.rid} has ${r.attrs.size} attributes, not d = ${repo.d}")
    val t0  = System.nanoTime()
    var cdd = 0L
    val t =
      if (r.isComplete) Imputer.imputeComplete(r)
      else {
        val rp       = r.probes // r's values tokenized once, for every step below
        val t1       = System.nanoTime()
        val selected = r.missing.map { j =>
          j -> cddIndex.fold(rules.filter(rule => rule.dep == j && rule.applicableTo(r)))(_.select(r, rp, j))
        }.toMap
        cdd = System.nanoTime() - t1
        stats.cddSelectNanos += cdd
        val finder = drIndex.fold(Imputer.allSamples(repo))(_.finderFor(rp))
        val dists = r.attrs.indices.map { j =>
          r.attrs(j).fold(Imputer.valueDistribution(r, rp, j, selected(j), repo, finder, indexed, stats))(v => Vector((v, 1.0)))
        }.toVector
        ImputedTuple(r.rid, r.sid, r.ts, dists, Imputer.assemble(dists, stats))
      }
    val sk = TupleSketch.of(t, pivots, keywords)
    stats.imputeNanos += System.nanoTime() - t0 - cdd
    sk
  }
}
