package repro.index

import scala.collection.mutable
import repro.core.{AttrSketch, TupleSketch}

/** ER-grid `G_ER` (§5.2): a d-dimensional grid over `[0,1]^d` of main-pivot
  * distance coordinates. Each imputed tuple occupies every cell its
  * distance-interval box intersects; cells keep the aggregates the
  * cell-level pruning reads (keyword set, per-attr per-pivot distance
  * intervals, token-size intervals).
  *
  * Aggregates are maintained incrementally: an insert folds the new sketch
  * into a cell's clean aggregate (min, max and union are exact, so the fold
  * equals a recompute); a remove marks the cell dirty, and a dirty cell is
  * recomputed from its entries when a traversal next reads it.
  */
final class ERGrid(val d: Int, val cellsPerDim: Int) {
  import ERGrid._

  private val nCells = math.pow(cellsPerDim, d).toInt
  private val cells: Array[mutable.ArrayBuffer[Entry]] =
    Array.fill(nCells)(mutable.ArrayBuffer.empty[Entry])
  private val agg: Array[CellAgg]   = Array.fill(nCells)(null)
  private val dirty: Array[Boolean] = Array.fill(nCells)(true)
  private var liveCount             = 0

  private def bucket(x: Double): Int =
    math.max(0, math.min(cellsPerDim - 1, (x * cellsPerDim).toInt))

  /** Flat indices of all cells the sketch's main-pivot box intersects,
    * ascending.
    */
  def cellIdsOf(sk: TupleSketch): Vector[Int] = {
    var ids = Vector(0)
    var j   = 0
    while (j < d) {
      val loB = bucket(sk.attrs(j).distLo(0))
      val hiB = bucket(sk.attrs(j).distHi(0))
      ids = for (base <- ids; b <- loB to hiB) yield base * cellsPerDim + b
      j += 1
    }
    ids
  }

  def insert(sk: TupleSketch): Unit = {
    val ids = cellIdsOf(sk)
    val e   = Entry(sk, ids.size > 1)
    ids.foreach { c =>
      cells(c) += e
      if (!dirty(c)) agg(c) = agg(c).plus(sk)
    }
    liveCount += 1
  }

  def remove(sk: TupleSketch): Unit = {
    cellIdsOf(sk).foreach { c =>
      val buf = cells(c)
      val i   = buf.indexWhere(e => e.sk.rid == sk.rid && e.sk.sid == sk.sid)
      if (i >= 0) { buf.remove(i); dirty(c) = true }
    }
    liveCount -= 1
  }

  def size: Int = liveCount

  /** Non-empty cells with up-to-date aggregates, in ascending flat-id order
    * (the engine's multi-cell dedup tests an entry in the first cell that
    * holds it, so the counters depend on this order).
    */
  def nonEmptyCells: Iterator[(CellAgg, mutable.ArrayBuffer[Entry])] =
    Iterator.range(0, nCells).filter(cells(_).nonEmpty).map { c =>
      if (dirty(c)) { agg(c) = CellAgg.of(cells(c).view.map(_.sk), d); dirty(c) = false }
      (agg(c), cells(c))
    }
}

object ERGrid {

  /** A grid entry; `multiCell` marks tuples whose interval box spans more
    * than one cell (only those need deduplication in a traversal — point
    * tuples live in exactly one cell).
    */
  final case class Entry(sk: TupleSketch, multiCell: Boolean) {
    private var lastVisit = -1L

    /** Marks the entry as tested by traversal `t`; false if it already was. */
    def visit(t: Long): Boolean = lastVisit != t && { lastVisit = t; true }
  }

  /** Cell aggregates of §5.2: union keyword set, per-attr per-pivot distance
    * intervals minimally bounding all member tuples, and size intervals.
    */
  final case class CellAgg(
      kw: Set[String],
      lo: Array[Array[Double]],
      hi: Array[Array[Double]],
      sizeMin: Array[Int],
      sizeMax: Array[Int],
  ) {
    def hasAnyKeyword(k: Set[String]): Boolean = kw.nonEmpty && k.exists(kw.contains)

    /** The cell's intervals in tuple-sketch form for the Lemma 4.1/4.2
      * bounds (`distE` is not aggregated).
      */
    val attrs: Vector[AttrSketch] =
      Vector.tabulate(lo.length)(j => AttrSketch(sizeMin(j), sizeMax(j), lo(j), hi(j), null))

    /** This aggregate with one more member. */
    def plus(sk: TupleSketch): CellAgg = {
      val acc = new Acc(kw, lo.map(_.clone), hi.map(_.clone), sizeMin.clone, sizeMax.clone)
      acc.add(sk)
      acc.result
    }
  }

  object CellAgg {
    /** The aggregate of a non-empty member list, computed from scratch. */
    def of(members: Iterable[TupleSketch], d: Int): CellAgg = {
      val it   = members.iterator
      val head = it.next()
      val acc = new Acc(Set.empty,
        Array.tabulate(d)(j => Array.fill(head.attrs(j).distLo.length)(Double.MaxValue)),
        Array.tabulate(d)(j => Array.fill(head.attrs(j).distLo.length)(0.0)),
        Array.fill(d)(Int.MaxValue), Array.fill(d)(0))
      acc.add(head)
      while (it.hasNext) acc.add(it.next())
      acc.result
    }
  }

  /** Running min/max/union over members; owns its arrays. */
  private final class Acc(var kw: Set[String], lo: Array[Array[Double]], hi: Array[Array[Double]],
                          sMin: Array[Int], sMax: Array[Int]) {
    def add(sk: TupleSketch): Unit = {
      if (sk.kw.nonEmpty && !sk.kw.subsetOf(kw)) kw ++= sk.kw
      var j = 0
      while (j < lo.length) {
        val a = sk.attrs(j)
        if (a.sizeMin < sMin(j)) sMin(j) = a.sizeMin
        if (a.sizeMax > sMax(j)) sMax(j) = a.sizeMax
        val l = lo(j)
        val h = hi(j)
        val n = math.min(l.length, a.distLo.length)
        var p = 0
        while (p < n) {
          if (a.distLo(p) < l(p)) l(p) = a.distLo(p)
          if (a.distHi(p) > h(p)) h(p) = a.distHi(p)
          p += 1
        }
        j += 1
      }
    }

    def result: CellAgg = CellAgg(kw, lo, hi, sMin, sMax)
  }
}
