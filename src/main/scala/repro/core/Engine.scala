package repro.core

import scala.annotation.unused
import scala.collection.mutable
import repro.cdd.Rule
import repro.eval.{IjGer, Method, TERiDS}
import repro.impute.{Imputer, Repo}
import repro.index.{CDDIndex, DRIndex, ERGrid}

/** TER-iDS query parameters (problem statement, §2.3 + Table 5). */
final case class Params(keywords: Set[String], gamma: Double, alpha: Double, w: Int) {
  /** The keywords as tokens (`Text.tokens`), the form values are compared in. */
  val keywordTokens: Set[String] = keywords.flatMap(k => Text.tokens(k))
}

/** Which imputation method a configuration uses (§6.1 baselines). */
sealed trait ImputeKind
case object UseCDD  extends ImputeKind // CDD rules [19, 41]
case object UseDD   extends ImputeKind // DD rules [35]
case object UseEdit extends ImputeKind // editing rules [12]
case object UseCon  extends ImputeKind // constraint/window-based [43], no repository

/** Per-run counters: pruning power (Fig. 4), break-up cost (Fig. 6), and
  * wall-clock accounting (Figs. 5b, 7–10, 16–17).
  */
final class RunStats {
  var steps: Long                = 0
  var pairsTotal: Long           = 0
  var prunedKeyword: Long        = 0
  var prunedSimUB: Long          = 0
  var prunedProbUB: Long         = 0
  var prunedInstancePair: Long   = 0
  var refinedFull: Long          = 0
  var matchedPairs: Long         = 0
  var instancePairsChecked: Long = 0
  /** ER-grid cells recomputed from their members (`ERGrid.recomputes`). */
  var gridRecomputes: Long       = 0
  /** Repository samples verified with `Rule.satisfiedBy` during imputation. */
  var imputeSamplesChecked: Long = 0
  var cddSelectNanos: Long       = 0
  var imputeNanos: Long          = 0
  var erNanos: Long              = 0

  def totalNanos: Long = cddSelectNanos + imputeNanos + erNanos
  def msPerStep: Double = if (steps == 0) 0 else totalNanos / 1e6 / steps
  def pruningPower: Map[String, Double] = {
    val t = math.max(1L, pairsTotal).toDouble
    Map(
      "keyword"       -> prunedKeyword / t,
      "simUB"         -> prunedSimUB / t,
      "probUB"        -> prunedProbUB / t,
      "instancePair"  -> prunedInstancePair / t,
    )
  }
}

/** The TER-iDS engine (Algorithms 1–2), configured as one of the six §6.1
  * methods (`repro.eval.Method`): TER-iDS and I_j + G_ER use the CDD-index,
  * the ER-grid, every prune and the neighbor memo, TER-iDS also the
  * DR-index; the naive baselines scan rules, repository and windows.
  *
  * `step(arrivals)` advances one timestamp: evicts expired tuples from each
  * stream's count-based window (Def. 2), imputes each arrival, finds its
  * matching candidates, prunes, refines, and maintains the entity set ES.
  */
final class Engine(
    val d: Int,
    rules: Seq[Rule],
    repoOpt: Option[Repo],
    pivots: Pivots,
    val params: Params,
    val method: Method,
) {
  /** TER-iDS by its old flag set, which the benchmark still passes by name
    * (ROADMAP item 6 removes it). Any other flag set is rejected.
    */
  def this(d: Int, rules: Seq[Rule], repoOpt: Option[Repo], pivots: Pivots, @unused vocab: Set[String],
           params: Params, useCddIndex: Boolean, useDrIndex: Boolean, useGrid: Boolean, usePruning: Boolean,
           imputeKind: ImputeKind) =
    this(d, rules, repoOpt, pivots, params, {
      require(useCddIndex && useDrIndex && useGrid && usePruning && imputeKind == UseCDD,
        "only the TER-iDS flag set is supported; pass a Method")
      TERiDS
    })

  private val imputeKind = method.imputeKind
  require(imputeKind == UseCon || repoOpt.isDefined, "rule-based imputation needs a repository")

  /** The CDD-index, ER-grid, prunes and neighbor memo of the index join. */
  private val indexed = method == TERiDS || method == IjGer

  val stats = new RunStats

  private val keywords = params.keywordTokens

  private val cddIndex: Option[CDDIndex] =
    if (indexed) Some(new CDDIndex(rules, pivots, d)) else None
  private val drIndex: Option[DRIndex] =
    if (method == TERiDS) repoOpt.flatMap(Engine.drIndexFor) else None
  private val grid: Option[ERGrid] =
    if (indexed) Some(new ERGrid(d, Engine.CellsPerDim)) else None

  private val addSelectNanos: Long => Unit    = stats.cddSelectNanos += _
  private val addSamplesChecked: Long => Unit = stats.imputeSamplesChecked += _

  /** Grid traversals so far; tags which traversal visited a grid entry. */
  private var traversals = 0L

  /** Per-stream sliding windows of (raw record, imputed sketch). */
  private val windows = mutable.Map.empty[Int, mutable.ArrayDeque[(Record, TupleSketch)]]

  /** Current entity set ES (pairs keyed (min rid, max rid)) + adjacency for
    * O(deg) removal on expiry, and the append-only union for the F-score.
    */
  private val es        = mutable.LinkedHashSet.empty[(Long, Long)]
  private val adjacency = mutable.Map.empty[Long, mutable.Set[Long]]
  private val allEver   = mutable.LinkedHashSet.empty[(Long, Long)]

  def currentES: Set[(Long, Long)] = es.toSet
  def allMatches: Set[(Long, Long)] = allEver.toSet
  def windowSize(sid: Int): Int    = windows.get(sid).map(_.size).getOrElse(0)

  private def pairKey(a: Long, b: Long): (Long, Long) = if (a < b) (a, b) else (b, a)

  private def addMatch(a: Long, b: Long): Unit = {
    val k = pairKey(a, b)
    if (es.add(k)) {
      adjacency.getOrElseUpdate(a, mutable.Set.empty) += b
      adjacency.getOrElseUpdate(b, mutable.Set.empty) += a
      stats.matchedPairs += 1
    }
    allEver += k
  }

  private def evict(sid: Int): Unit = {
    val q = windows.getOrElseUpdate(sid, mutable.ArrayDeque.empty)
    while (q.size >= params.w) {
      val (rec, sk) = q.removeHead()
      grid.foreach(_.remove(sk))
      adjacency.remove(rec.rid).foreach { partners =>
        partners.foreach { p =>
          es.remove(pairKey(rec.rid, p))
          adjacency.get(p).foreach(_ -= rec.rid)
        }
      }
    }
  }

  private def imputeRecord(r: Record): ImputedTuple =
    if (imputeKind != UseCon)
      // The neighbor memo table belongs to the index infrastructure; naive
      // baselines rescan the domain like the straightforward method (§2.3).
      Imputer.impute(r, rules, repoOpt.get, cddIndex, drIndex, cached = indexed, addSelectNanos, addSamplesChecked)
    else if (r.isComplete) Imputer.imputeComplete(r)
    else {
      val complete = windows.get(r.sid).iterator.flatten
        .collect { case (rec, _) if rec.isComplete => (rec.ts, rec.attrs.map(_.get)) }
        .toVector
      Imputer.imputeFromWindow(r, complete)
    }

  /** Candidate matching for one arrival against the current windows. */
  private def matchArrival(q: TupleSketch): Unit = {
    val k      = keywords
    val gamma  = params.gamma
    val alpha  = params.alpha
    val qHasKw = q.hasAnyKeyword(k)

    // One outcome per evaluated pair, so the counters partition pairsTotal.
    def tupleLevel(c: TupleSketch): Unit = {
      stats.pairsTotal += 1
      if (!indexed) {
        val (pr, checked) = Pruning.prExact(q.t, c.t, k, gamma)
        stats.instancePairsChecked += checked
        if (pr > alpha) addMatch(q.rid, c.rid) else stats.refinedFull += 1
      } else Pruning.testPair(q, qHasKw, c, k, gamma, alpha) match {
        case Pruning.KeywordPruned => stats.prunedKeyword += 1
        case Pruning.SimUBPruned   => stats.prunedSimUB += 1
        case Pruning.ProbUBPruned  => stats.prunedProbUB += 1
        case r: Pruning.Refined    =>
          stats.instancePairsChecked += r.pairsChecked
          if (r.matched) addMatch(q.rid, c.rid)
          else if (r.earlyStopped) stats.prunedInstancePair += 1
          else stats.refinedFull += 1
      }
    }

    grid match {
      case Some(g) =>
        // Only tuples spanning several cells need dedup; point tuples
        // (complete on every attribute) live in exactly one cell.
        traversals += 1
        val visit = traversals
        g.nonEmptyCells.foreach { case (agg, members) =>
          // Cell-level prunes: aggregates bound every member, so a pruned
          // cell prunes all its members (soundness argued in DESIGN.md).
          val cellKwPruned  = !qHasKw && !agg.hasAnyKeyword(k)
          val cellSimPruned = !cellKwPruned &&
            math.min(Pruning.ubSimBySize(q.attrs, agg.attrs), Pruning.ubSimByPivot(q.attrs, agg.attrs)) <= gamma
          var i = 0
          while (i < members.length) {
            val e = members(i)
            if (e.sk.sid != q.sid && (!e.multiCell || e.visit(visit))) {
              if (cellKwPruned) { stats.pairsTotal += 1; stats.prunedKeyword += 1 }
              else if (cellSimPruned) { stats.pairsTotal += 1; stats.prunedSimUB += 1 }
              else tupleLevel(e.sk)
            }
            i += 1
          }
        }
        stats.gridRecomputes = g.recomputes
      case None =>
        windows.valuesIterator.flatten.foreach { case (_, c) =>
          if (c.sid != q.sid) tupleLevel(c)
        }
    }
  }

  /** Advance one timestamp with one arrival per (subset of) stream(s). */
  def step(arrivals: Seq[Record]): Unit = {
    stats.steps += 1
    arrivals.foreach(r => evict(r.sid))
    arrivals.foreach { r =>
      val cddBefore = stats.cddSelectNanos
      val t0 = System.nanoTime()
      val imputed = imputeRecord(r)
      val sk      = TupleSketch.of(imputed, pivots, keywords)
      // imputeRecord internally charges rule selection to cddSelectNanos;
      // keep the two break-up buckets disjoint (Fig. 6).
      stats.imputeNanos += (System.nanoTime() - t0) - (stats.cddSelectNanos - cddBefore)
      val t1 = System.nanoTime()
      matchArrival(sk)
      stats.erNanos += System.nanoTime() - t1
      windows.getOrElseUpdate(r.sid, mutable.ArrayDeque.empty) += ((r, sk))
      grid.foreach(_.insert(sk))
    }
  }

  /** Run a full interleaved stream (one record per stream per timestamp). */
  def run(streams: Seq[Seq[Record]], maxSteps: Int = Int.MaxValue): Unit = {
    val n = math.min(streams.map(_.size).max, maxSteps)
    var t = 0
    while (t < n) {
      step(streams.flatMap(s => if (t < s.size) Some(s(t)) else None))
      t += 1
    }
  }
}

object Engine {
  /** Below this repository size the index join retrieves samples by the
    * verified scan and no DR-index is built. The value is not a measured
    * crossover: the prefix-filter DR-index beats the scan at every |R|
    * measured, from 92 rows up (EXPERIMENTS.md, "DR-index cutover"). It
    * stays at 1500 because the benchmark's workloads are chosen on either
    * side of it (er-heavy scans at |R| = 750, impute-heavy uses the index at
    * 2400).
    */
  val DrIndexMinRepo = 1500

  /** ER-grid cells per dimension. */
  val CellsPerDim = 5

  /** The DR-index the index join queries for `repo`, if it is large enough
    * for the index to pay.
    */
  def drIndexFor(repo: Repo): Option[DRIndex] =
    // The DR-index reads no pivots or vocabulary.
    if (repo.size >= DrIndexMinRepo) Some(new DRIndex(repo, Pivots(Vector.empty), Set.empty)) else None
}
