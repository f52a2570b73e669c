package repro.core

import scala.annotation.unused
import scala.collection.mutable
import repro.cdd.Rule
import repro.eval.{ConEr, IjGer, Method, TERiDS}
import repro.impute.{ImputePlan, Imputer, Repo}
import repro.index.ERGrid

/** TER-iDS query parameters (problem statement, §2.3 + Table 5). */
final case class Params(keywords: Set[String], gamma: Double, alpha: Double, w: Int) {
  require(w >= 1, s"window size w = $w: a window holds at least one tuple")
  require(alpha >= 0 && alpha <= 1, s"alpha = $alpha: a probability threshold lies in [0, 1]")
  require(gamma >= 0 && !gamma.isInfinite, s"gamma = $gamma: a similarity threshold is finite and >= 0")

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
  * wall-clock accounting (Figs. 5b, 7–10, 16–17). Serializable so that a
  * Spark task can return its imputation counters.
  */
final class RunStats extends Serializable {
  var steps: Long                = 0
  var pairsTotal: Long           = 0
  var prunedKeyword: Long        = 0
  var prunedSimUB: Long          = 0
  var prunedProbUB: Long         = 0
  var prunedInstancePair: Long   = 0
  var refinedFull: Long          = 0
  var matchedPairs: Long         = 0
  var instancePairsChecked: Long = 0
  /** Refinements `Pruning.testPair` settled without a similarity test, by
    * either filter: the token signatures' count filter or the overlap
    * bound. Each is also booked as the refinement it is (never a match), so
    * this is a share of refinedFull + prunedInstancePair, not a further
    * outcome.
    */
  var refineSettled: Long        = 0
  /** ER-grid cells recomputed from their members (`ERGrid.recomputes`). */
  var gridRecomputes: Long       = 0
  /** ER-grid entries the traversals walked (a cell's members or its topical part). */
  var gridMembersVisited: Long   = 0
  /** Repository samples verified with `Rule.satisfiedBy` during imputation. */
  var imputeSamplesChecked: Long = 0
  /** Domain values verified with `Text.jdist` while expanding `cand(s[A_j])`. */
  var neighborsChecked: Long     = 0
  // Imputation quality: tuples with a missing value, their missing values,
  // the values that fell back to `Imputer.missSentinel`, the tuples whose
  // instance cross product exceeded `Imputer.MaxInstances`, and the summed
  // probability mass the caps dropped (1 − Σ p per tuple).
  var imputedTuples: Long        = 0
  var imputedAttrs: Long         = 0
  var sentinelFallbacks: Long    = 0
  var instanceCapBinds: Long     = 0
  var droppedMass: Double        = 0.0
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

  /** Add `o`'s counters and timers to these (`SparkTER` folds its tasks'
    * ledgers into its engine's).
    */
  def add(o: RunStats): Unit = {
    steps += o.steps; pairsTotal += o.pairsTotal; prunedKeyword += o.prunedKeyword; prunedSimUB += o.prunedSimUB
    prunedProbUB += o.prunedProbUB; prunedInstancePair += o.prunedInstancePair; refinedFull += o.refinedFull
    matchedPairs += o.matchedPairs; instancePairsChecked += o.instancePairsChecked; refineSettled += o.refineSettled
    gridRecomputes += o.gridRecomputes; gridMembersVisited += o.gridMembersVisited
    imputeSamplesChecked += o.imputeSamplesChecked; neighborsChecked += o.neighborsChecked
    imputedTuples += o.imputedTuples; imputedAttrs += o.imputedAttrs; sentinelFallbacks += o.sentinelFallbacks
    instanceCapBinds += o.instanceCapBinds; droppedMass += o.droppedMass
    cddSelectNanos += o.cddSelectNanos; imputeNanos += o.imputeNanos; erNanos += o.erNanos
  }
}

/** The TER-iDS engine (Algorithms 1–2), configured as one of the six §6.1
  * methods (`repro.eval.Method`): TER-iDS and I_j + G_ER use the CDD-index,
  * the ER-grid, every prune and the neighbor memo, TER-iDS also the
  * DR-index; the naive baselines scan rules, repository and windows.
  *
  * `step(arrivals)` advances one timestamp: evicts expired tuples from each
  * stream's count-based window (Def. 2), imputes each arrival, finds its
  * matching candidates, prunes, refines, and logs the matches, from which
  * the entity set ES is read.
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
    * (ROADMAP item 3 removes it). Any other flag set is rejected.
    */
  def this(d: Int, rules: Seq[Rule], repoOpt: Option[Repo], pivots: Pivots, @unused vocab: Set[String],
           params: Params, useCddIndex: Boolean, useDrIndex: Boolean, useGrid: Boolean, usePruning: Boolean,
           imputeKind: ImputeKind) =
    this(d, rules, repoOpt, pivots, params, {
      require(useCddIndex && useDrIndex && useGrid && usePruning && imputeKind == UseCDD,
        "only the TER-iDS flag set is supported; pass a Method")
      TERiDS
    })

  require(method == ConEr || repoOpt.isDefined, "rule-based imputation needs a repository")

  /** The ER-grid and prunes of the index join. */
  private val indexed = method == TERiDS || method == IjGer

  val stats = new RunStats

  private val keywords = params.keywordTokens

  /** The method's rule-based imputation; con+ER imputes from the window. */
  private[repro] val plan: Option[ImputePlan] =
    if (method == ConEr) None else Some(new ImputePlan(method, rules, repoOpt.get, pivots, keywords))
  private val grid: Option[ERGrid] =
    if (indexed) Some(new ERGrid(d, Engine.CellsPerDim)) else None

  /** Per-stream sliding windows of (raw record, imputed sketch). */
  private val windows = mutable.Map.empty[Int, mutable.ArrayDeque[(Record, TupleSketch)]]

  /** Every pair found, keyed (min rid, max rid), in the order found. A pair
    * is tested once, when its later tuple arrives, so the entity set ES is
    * the pairs whose two tuples are both still in the windows.
    */
  private val allEver = mutable.LinkedHashSet.empty[(Long, Long)]

  def currentES: Set[(Long, Long)] = {
    val live = windows.valuesIterator.flatMap(_.iterator.map(_._1.rid)).toSet
    allEver.iterator.filter { case (a, b) => live(a) && live(b) }.toSet
  }
  def allMatches: Set[(Long, Long)] = allEver.toSet
  def windowSize(sid: Int): Int    = windows.get(sid).map(_.size).getOrElse(0)
  def windowState: Seq[TupleSketch] = windows.valuesIterator.flatMap(_.iterator.map(_._2)).toSeq
  /** `allMatches` in the order found, not copied. */
  private[repro] def found: collection.Set[(Long, Long)] = allEver

  private def pairKey(a: Long, b: Long): (Long, Long) = if (a < b) (a, b) else (b, a)

  private def addMatch(a: Long, b: Long): Unit =
    if (allEver.add(pairKey(a, b))) stats.matchedPairs += 1

  private def evict(sid: Int): Unit = {
    val q = windows.getOrElseUpdate(sid, mutable.ArrayDeque.empty)
    while (q.size >= params.w) {
      val (_, sk) = q.removeHead()
      grid.foreach(_.remove(sk))
    }
  }

  /** con+ER: an arrival copies its stream's most recent complete tuple. */
  private def sketchFromWindow(r: Record): TupleSketch = {
    val t0 = System.nanoTime()
    val t =
      if (r.isComplete) Imputer.imputeComplete(r)
      else Imputer.imputeFromWindow(r, windows(r.sid).collect { case (c, _) if c.isComplete => (c.ts, c.attrs.map(_.get)) },
        stats)
    val sk = TupleSketch.of(t, pivots, keywords)
    stats.imputeNanos += System.nanoTime() - t0
    sk
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
          if (r.settled) stats.refineSettled += 1
          if (r.matched) addMatch(q.rid, c.rid)
          else if (r.earlyStopped) stats.prunedInstancePair += 1
          else stats.refinedFull += 1
      }
    }

    grid match {
      case Some(g) =>
        // An entry is tested only in its first cell, so a multi-cell entry
        // is tested once per arrival.
        g.cellsInOrder.foreach { cell =>
          // Cell-level prunes: aggregates bound every member, so a pruned
          // cell prunes all its members (soundness argued in DESIGN.md).
          // Sketches are built against the query tokens, so a cell holds a
          // query keyword iff it has a topical member.
          val cellKwPruned  = !qHasKw && cell.topical.isEmpty
          val cellSimPruned = !cellKwPruned && Pruning.ubSim(q.bounds, cell.bounds) <= gamma
          // A keyword-pruned cell has no topical member, so it walks nothing.
          val members =
            if (qHasKw) cell.entries
            else {
              // A keyword-free member is tested in its first cell, where the
              // cell prunes or Theorem 4.1 reject it; book those of the other
              // streams by count and walk only the topical members.
              val free = cell.keywordFreeOutside(q.sid)
              stats.pairsTotal += free
              if (cellSimPruned) stats.prunedSimUB += free else stats.prunedKeyword += free
              cell.topical
            }
          stats.gridMembersVisited += members.length
          var i = 0
          while (i < members.length) {
            val e = members(i)
            if (e.sk.sid != q.sid && e.first == cell.id) {
              if (cellSimPruned) { stats.pairsTotal += 1; stats.prunedSimUB += 1 }
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
  def step(arrivals: Seq[Record]): Unit = step(arrivals, null)

  /** [[step]] with the arrivals' sketches, in order, made elsewhere with this
    * engine's `plan` (`SparkTER`'s tasks); `null` sketches them here.
    */
  private[repro] def step(arrivals: Seq[Record], sketches: Array[TupleSketch]): Unit = {
    // Eviction cuts each stream to w - 1 tuples once per arrival, so a second
    // arrival of a stream in the same timestamp would overflow its window.
    require(arrivals.map(_.sid).distinct.size == arrivals.size,
      s"two arrivals of one stream at ts ${arrivals.head.ts}: a stream takes one arrival per timestamp")
    require(arrivals.forall(_.attrs.size == d), s"an arrival at ts ${arrivals.head.ts} does not have d = $d attributes")
    stats.steps += 1
    arrivals.foreach(r => evict(r.sid))
    var i = 0
    arrivals.foreach { r =>
      val sk = if (sketches != null) sketches(i) else plan.fold(sketchFromWindow(r))(_.sketch(r, stats))
      i += 1
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
}
