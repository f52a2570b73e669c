package repro.terbench

import scala.collection.mutable
import repro.cdd.{Rule, ValueEq}
import repro.core._
import repro.impute.{Imputer, Repo}
import repro.index.{CDDIndex, ERGrid}

/** A traced replay of `Engine.step` for the TER-iDS configuration (CDD-index,
  * DR-index, ER-grid, all prunings), built only from the layers' public
  * functions so that a span can sit around every call into a layer.
  *
  * It must make exactly the decisions `Engine` makes: the benchmark compares
  * its matches and every [[RunStats]] counter with an untraced `Engine` run
  * over the same prefix and refuses to report numbers if any differ.
  */
final class Replay(d: Int, rules: Seq[Rule], repo: Repo, pivots: Pivots, vocab: Set[String],
                   params: Params, tr: Tracer) {

  val stats = new RunStats

  // Layer counts measured at the call boundaries.
  var cddRulesReturned: Long   = 0
  var drSamplesReturned: Long  = 0
  var gridCellsVisited: Long   = 0
  var gridMembersVisited: Long = 0
  var cellKeywordPrunes: Long  = 0
  var imputedTuples: Long      = 0
  var instanceCapBinds: Long   = 0
  var droppedMass: Double      = 0.0
  var sentinelFallbacks: Long  = 0

  private val cddIndex = new CDDIndex(rules, pivots, d)
  private val drIndex  = Api.drIndex(repo, pivots, vocab)
  private val grid     = new ERGrid(d, 5) // Engine's default cellsPerDim

  /** Whether sample retrieval goes through the DR-index (Engine's cutover). */
  val drActive: Boolean = repo.size >= Engine.DrIndexMinRepo

  private val Arrival    = tr.nameId("arrival")
  private val Evict      = tr.nameId("core.evict")
  private val GridRemove = tr.nameId("index.grid_remove")
  private val GridInsert = tr.nameId("index.grid_insert")
  private val GridTrav   = tr.nameId("index.grid_traverse")
  private val CddSelect  = tr.nameId("index.cdd_select")
  private val DrFinder   = tr.nameId("index.dr_finder")
  private val ValueDist  = tr.nameId("impute.value_distribution")
  private val Assemble   = tr.nameId("impute.assemble_instances")
  private val Sketch     = tr.nameId("core.sketch")
  private val Match      = tr.nameId("core.match")
  private val PruneKw    = tr.nameId("core.prune_keyword")
  private val PruneSim   = tr.nameId("core.prune_sim_ub")
  private val PruneProb  = tr.nameId("core.prune_prob_ub")
  private val Refine     = tr.nameId("core.refine")

  private val windows   = mutable.Map.empty[Int, mutable.ArrayDeque[(Record, TupleSketch)]]
  private val es        = mutable.LinkedHashSet.empty[(Long, Long)]
  private val adjacency = mutable.Map.empty[Long, mutable.Set[Long]]
  private val allEver   = mutable.LinkedHashSet.empty[(Long, Long)]

  def allMatches: Set[(Long, Long)] = allEver.toSet

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
      tr.span(GridRemove)(grid.remove(sk))
      adjacency.remove(rec.rid).foreach { partners =>
        partners.foreach { p =>
          es.remove(pairKey(rec.rid, p))
          adjacency.get(p).foreach(_ -= rec.rid)
        }
      }
    }
  }

  private def imputeRecord(r: Record): ImputedTuple = {
    if (r.isComplete) return Imputer.imputeComplete(r)
    val selected = r.missing.map { j =>
      val rs = tr.span(CddSelect)(cddIndex.select(r, j))
      cddRulesReturned += rs.size
      j -> rs
    }.toMap
    val scan = Imputer.allSamples(repo)
    val finder: Imputer.SampleFinder =
      if (drActive) {
        val ixf = drIndex.finderFor(r)
        (rule, rec) =>
          if (rule.det.valuesIterator.exists(_.isInstanceOf[ValueEq])) {
            val found = tr.span(DrFinder)(ixf(rule, rec).toArray)
            drSamplesReturned += found.length
            found.iterator
          } else scan(rule, rec)
      } else scan
    val dists = r.attrs.indices.map { j =>
      r.attrs(j) match {
        case Some(v) => Vector((v, 1.0))
        case None =>
          val dist = tr.span(ValueDist)(Imputer.valueDistribution(r, j, selected(j), repo, finder, cached = true))
          if (dist == Vector((Imputer.missSentinel(r.rid, j), 1.0))) sentinelFallbacks += 1
          dist
      }
    }.toVector
    val instances = tr.span(Assemble)(Imputer.assembleInstances(dists))
    imputedTuples += 1
    if (dists.iterator.map(_.size.toLong).product > Imputer.MaxInstances) instanceCapBinds += 1
    droppedMass += 1.0 - instances.iterator.map(_.p).sum
    ImputedTuple(r.rid, r.sid, r.ts, dists, instances)
  }

  private def matchArrival(q: TupleSketch): Unit = {
    val k      = params.keywords
    val gamma  = params.gamma
    val alpha  = params.alpha
    val qHasKw = q.hasAnyKeyword(k)

    def tupleLevel(c: TupleSketch): Unit = {
      stats.pairsTotal += 1
      if (tr.span(PruneKw)(!qHasKw && !c.hasAnyKeyword(k))) { stats.prunedKeyword += 1; return }
      if (tr.span(PruneSim)(Pruning.ubSimBySize(q, c) <= gamma || Pruning.ubSimByPivot(q, c) <= gamma)) {
        stats.prunedSimUB += 1; return
      }
      if (tr.span(PruneProb)(Pruning.probUpperBound(q, c, gamma) <= alpha)) { stats.prunedProbUB += 1; return }
      val r = tr.span(Refine)(Pruning.refine(q.t, c.t, k, gamma, alpha))
      stats.instancePairsChecked += r.pairsChecked
      if (r.matched) addMatch(q.rid, c.rid)
      else if (r.earlyStopped) stats.prunedInstancePair += 1
      else stats.refinedFull += 1
    }

    val visited = mutable.HashSet.empty[Long]
    val cells   = tr.span(GridTrav)(grid.nonEmptyCells.toArray)
    gridCellsVisited += cells.length
    cells.foreach { case (agg, members) =>
      gridMembersVisited += members.length
      val cellKwPruned  = !qHasKw && !agg.hasAnyKeyword(k)
      val cellSimPruned = !cellKwPruned && Replay.cellSimUB(q, agg, d) <= gamma
      var i = 0
      while (i < members.length) {
        val e = members(i)
        if (e.sk.sid != q.sid && (!e.multiCell || visited.add(e.sk.rid))) {
          if (cellKwPruned) { stats.pairsTotal += 1; stats.prunedKeyword += 1; cellKeywordPrunes += 1 }
          else if (cellSimPruned) { stats.pairsTotal += 1; stats.prunedSimUB += 1 }
          else tupleLevel(e.sk)
        }
        i += 1
      }
    }
  }

  /** One timestamp, in `Engine.step`'s order: evict, then impute, sketch,
    * match and insert each arrival.
    */
  def step(arrivals: Seq[Record]): Unit = {
    stats.steps += 1
    arrivals.foreach { r =>
      tr.traceId = r.rid
      tr.span(Evict)(evict(r.sid))
    }
    arrivals.foreach { r =>
      tr.traceId = r.rid
      tr.span(Arrival) {
        val imputed = imputeRecord(r)
        val sk      = tr.span(Sketch)(Api.sketch(imputed, pivots, vocab))
        tr.span(Match)(matchArrival(sk))
        windows.getOrElseUpdate(r.sid, mutable.ArrayDeque.empty) += ((r, sk))
        tr.span(GridInsert)(grid.insert(sk))
      }
    }
  }
}

object Replay {

  /** Engine's cell-level similarity bound: min of Lemma 4.1 and Lemma 4.2
    * against the cell aggregate, in the same floating-point order.
    */
  def cellSimUB(q: TupleSketch, agg: ERGrid.CellAgg, d: Int): Double = {
    var bySize = 0.0
    var byPiv  = 0.0
    var j      = 0
    while (j < d) {
      val a = q.attrs(j)
      bySize += Pruning.ubSimSizeAttr(a.sizeMin, a.sizeMax, agg.sizeMin(j), agg.sizeMax(j))
      val nPiv = math.min(a.distLo.size, agg.lo(j).length)
      var gap  = 0.0
      var p    = 0
      while (p < nPiv) {
        val g = Pruning.minDistGap(a.distLo(p), a.distHi(p), agg.lo(j)(p), agg.hi(j)(p))
        if (g > gap) gap = g
        p += 1
      }
      byPiv += 1.0 - gap
      j += 1
    }
    math.min(bySize, byPiv)
  }

  /** Names and values of the [[RunStats]] counters that must match. */
  def counters(s: RunStats): Vector[(String, Long)] = Vector(
    "steps" -> s.steps,
    "pairs_total" -> s.pairsTotal,
    "pruned_keyword" -> s.prunedKeyword,
    "pruned_sim_ub" -> s.prunedSimUB,
    "pruned_prob_ub" -> s.prunedProbUB,
    "pruned_instance_pair" -> s.prunedInstancePair,
    "refined_full" -> s.refinedFull,
    "matched" -> s.matchedPairs,
    "instance_pairs_checked" -> s.instancePairsChecked,
  )
}
