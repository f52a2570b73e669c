package repro.eval

import scala.collection.mutable
import repro.cdd.Rule
import repro.core._
import repro.impute.{ImputePlan, Repo}
import repro.index.ERGrid

/** Reference for the index join's counters: `Engine.step` for TER-iDS or
  * Ij+GER, with the candidate loop the engine ran before the ER-grid split
  * its cells by topic. Every arrival walks every member of every non-empty
  * cell (`ERGrid.nonEmptyCells`, ascending cell order) and tests a tuple in
  * the first cell that holds it. A pair that reaches refinement is booked
  * from `Pruning.refine`'s full enumeration, so the counters also stand for
  * `Pruning.testPair` without its settling filters; `settled` and
  * `enumerated` count the refinements `testPair` settled (by the count
  * filter or the overlap bound) and those it enumerated.
  */
final class MemberLoop(d: Int, rules: Seq[Rule], repo: Repo, pivots: Pivots, params: Params, method: Method) {
  require(method == TERiDS || method == IjGer, s"$method does not use the ER-grid")

  val stats            = new RunStats
  var settled: Long    = 0
  var enumerated: Long = 0

  private val k    = params.keywordTokens
  private val plan = new ImputePlan(method, rules, repo, pivots, k)
  private val grid = new ERGrid(d, Engine.CellsPerDim)

  private val windows   = mutable.Map.empty[Int, mutable.ArrayDeque[TupleSketch]]
  private val es        = mutable.Set.empty[(Long, Long)]
  private val adjacency = mutable.Map.empty[Long, mutable.Set[Long]]
  val allMatches        = mutable.Set.empty[(Long, Long)]

  private def pairKey(a: Long, b: Long): (Long, Long) = if (a < b) (a, b) else (b, a)

  private def addMatch(a: Long, b: Long): Unit = {
    if (es.add(pairKey(a, b))) {
      adjacency.getOrElseUpdate(a, mutable.Set.empty) += b
      adjacency.getOrElseUpdate(b, mutable.Set.empty) += a
      stats.matchedPairs += 1
    }
    allMatches += pairKey(a, b)
  }

  private def evict(sid: Int): Unit = {
    val q = windows.getOrElseUpdate(sid, mutable.ArrayDeque.empty)
    while (q.size >= params.w) {
      val sk = q.removeHead()
      grid.remove(sk)
      adjacency.remove(sk.rid).foreach(_.foreach { p =>
        es -= pairKey(sk.rid, p)
        adjacency.get(p).foreach(_ -= sk.rid)
      })
    }
  }

  private def matchArrival(q: TupleSketch): Unit = {
    val qHasKw = q.hasAnyKeyword(k)
    val tested = mutable.Set.empty[(Long, Int)]
    grid.nonEmptyCells.foreach { case (agg, members) =>
      val cellKwPruned  = !qHasKw && !agg.hasAnyKeyword(k)
      val cellSimPruned = !cellKwPruned &&
        math.min(Pruning.ubSimBySize(q.attrs, agg.attrs), Pruning.ubSimByPivot(q.attrs, agg.attrs)) <= params.gamma
      members.foreach { e =>
        val c = e.sk
        if (c.sid != q.sid && tested.add((c.rid, c.sid))) {
          stats.pairsTotal += 1
          if (cellKwPruned) stats.prunedKeyword += 1
          else if (cellSimPruned) stats.prunedSimUB += 1
          else Pruning.testPair(q, qHasKw, c, k, params.gamma, params.alpha) match {
            case Pruning.KeywordPruned => stats.prunedKeyword += 1
            case Pruning.SimUBPruned   => stats.prunedSimUB += 1
            case Pruning.ProbUBPruned  => stats.prunedProbUB += 1
            case t: Pruning.Refined    =>
              if (t.settled) settled += 1 else enumerated += 1
              val r = Pruning.refine(q.t, c.t, k, params.gamma, params.alpha)
              stats.instancePairsChecked += r.pairsChecked
              if (r.matched) addMatch(q.rid, c.rid)
              else if (r.earlyStopped) stats.prunedInstancePair += 1
              else stats.refinedFull += 1
          }
        }
      }
    }
  }

  def step(arrivals: Seq[Record]): Unit = {
    stats.steps += 1
    arrivals.foreach(r => evict(r.sid))
    arrivals.foreach { r =>
      val sk = plan.sketch(r, stats)
      matchArrival(sk)
      windows.getOrElseUpdate(r.sid, mutable.ArrayDeque.empty) += sk
      grid.insert(sk)
    }
  }

  def run(streams: Seq[Seq[Record]]): Unit =
    (0 until streams.map(_.size).max).foreach(t => step(streams.flatMap(_.lift(t))))
}

object MemberLoop {
  /** The nine counters the topic split must leave unchanged. */
  def counters(s: RunStats): Seq[Long] = Seq(s.steps, s.pairsTotal, s.prunedKeyword, s.prunedSimUB,
    s.prunedProbUB, s.prunedInstancePair, s.refinedFull, s.matchedPairs, s.instancePairsChecked)
}
