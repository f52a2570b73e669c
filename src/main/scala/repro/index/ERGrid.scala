package repro.index

import scala.collection.mutable
import repro.core.{AttrSketch, TupleSketch}

/** ER-grid `G_ER` (§5.2): a d-dimensional grid over `[0,1]^d` of main-pivot
  * distance coordinates. Each imputed tuple occupies every cell its
  * distance-interval box intersects; cells keep the aggregates the
  * cell-level pruning reads (keyword set, per-attr per-pivot distance
  * intervals, token-size intervals).
  *
  * Cell aggregates are recomputed lazily after mutations (dirty flag): the
  * sliding window evicts and inserts one tuple per stream per timestamp, so
  * only the touched cells pay the recompute.
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

  /** Flat indices of all cells the sketch's main-pivot box intersects. */
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
    ids.foreach { c => cells(c) += e; dirty(c) = true }
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

  /** Non-empty cells with up-to-date aggregates, in deterministic order. */
  def nonEmptyCells: Iterator[(CellAgg, mutable.ArrayBuffer[Entry])] =
    Iterator.range(0, nCells).filter(cells(_).nonEmpty).map { c =>
      if (dirty(c)) { agg(c) = CellAgg.of(cells(c).map(_.sk), d); dirty(c) = false }
      (agg(c), cells(c))
    }
}

object ERGrid {

  /** A grid entry; `multiCell` marks tuples whose interval box spans more
    * than one cell (only those need visited-set deduplication — point
    * tuples live in exactly one cell).
    */
  final case class Entry(sk: TupleSketch, multiCell: Boolean)

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
  }

  object CellAgg {
    def of(members: Iterable[TupleSketch], d: Int): CellAgg = {
      val head = members.head
      val nPiv = Array.tabulate(d)(j => head.attrs(j).distLo.size)
      val lo   = Array.tabulate(d)(j => Array.fill(nPiv(j))(Double.MaxValue))
      val hi   = Array.tabulate(d)(j => Array.fill(nPiv(j))(0.0))
      val sMin = Array.fill(d)(Int.MaxValue)
      val sMax = Array.fill(d)(0)
      var kw   = Set.empty[String]
      members.foreach { sk =>
        kw ++= sk.kw
        var j = 0
        while (j < d) {
          val a = sk.attrs(j)
          if (a.sizeMin < sMin(j)) sMin(j) = a.sizeMin
          if (a.sizeMax > sMax(j)) sMax(j) = a.sizeMax
          var p = 0
          val n = math.min(nPiv(j), a.distLo.size)
          while (p < n) {
            if (a.distLo(p) < lo(j)(p)) lo(j)(p) = a.distLo(p)
            if (a.distHi(p) > hi(j)(p)) hi(j)(p) = a.distHi(p)
            p += 1
          }
          j += 1
        }
      }
      CellAgg(kw, lo, hi, sMin, sMax)
    }
  }
}
