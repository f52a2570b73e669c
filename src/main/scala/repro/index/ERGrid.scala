package repro.index

import scala.collection.mutable
import repro.core.{AttrSketch, Pruning, TupleSketch}

/** ER-grid `G_ER` (§5.2): a d-dimensional grid over `[0,1]^d` of main-pivot
  * distance coordinates. Each imputed tuple occupies every cell its
  * distance-interval box intersects; cells keep the aggregates the
  * cell-level pruning reads (keyword set, per-attr per-pivot distance
  * intervals, token-size intervals).
  *
  * Only non-empty cells exist: they sit in a map ordered by flat id, so
  * neither memory nor a traversal grows with `cellsPerDim^d`. An entry
  * carries its first cell (`Entry.first`, the lowest id of `cellIdsOf`),
  * where an ascending traversal meets a multi-cell entry first.
  *
  * Each cell splits its members by topic: `topical` lists the entries whose
  * sketch may contain a query keyword, and the keyword-free entries are
  * only counted, per stream, in their first cell. An arrival without a
  * keyword walks `topical` and books the counted members without visiting
  * them.
  *
  * Distance and size bounds are maintained incrementally and exactly: every
  * bound keeps the number of members that attain it. An insert folds the
  * sketch in (min and max are exact, so the fold equals a recompute). A
  * remove decrements the counts the sketch attains, and only a bound that
  * loses its last attaining member makes the cell recompute from its
  * members, when a traversal next reads it. The keyword set is the union of
  * the `topical` members' keywords, taken when the aggregate is published.
  */
final class ERGrid(val d: Int, val cellsPerDim: Int) {
  import ERGrid._

  require(d >= 1 && cellsPerDim >= 1, s"bad grid shape d=$d cellsPerDim=$cellsPerDim")
  require(BigInt(cellsPerDim).pow(d) <= Long.MaxValue,
    s"$cellsPerDim^$d cells overflow the Long flat cell ids")

  private val cells     = mutable.TreeMap.empty[Long, Cell]
  private var liveCount = 0
  private var rebuilt   = 0L

  private def bucket(x: Double): Int =
    math.max(0, math.min(cellsPerDim - 1, (x * cellsPerDim).toInt))

  /** Flat indices of all cells the sketch's main-pivot box intersects,
    * ascending.
    */
  def cellIdsOf(sk: TupleSketch): Vector[Long] = {
    var ids = Vector(0L)
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
    val e   = Entry(sk, ids.size > 1, ids.head)
    ids.foreach(c => cells.getOrElseUpdate(c, new Cell(c)).add(e))
    liveCount += 1
  }

  def remove(sk: TupleSketch): Unit = {
    cellIdsOf(sk).foreach { c =>
      cells.get(c).foreach { cell =>
        if (cell.remove(sk) && cell.entries.isEmpty) cells.remove(c)
      }
    }
    liveCount -= 1
  }

  def size: Int = liveCount

  /** Cells recomputed from their members so far: one per cell read after a
    * bound lost its last attaining member.
    */
  def recomputes: Long = rebuilt

  /** Non-empty cells with up-to-date aggregates, in ascending flat-id order
    * (the engine's multi-cell dedup tests an entry in the first cell that
    * holds it, so the counters depend on this order).
    */
  def nonEmptyCells: Iterator[(CellAgg, mutable.ArrayBuffer[Entry])] =
    cellsInOrder.map(c => (c.aggregate, c.entries))

  /** The non-empty cells themselves, in ascending flat-id order. */
  def cellsInOrder: Iterator[Cell] = cells.valuesIterator

  /** One cell: its entries, their topical part, per-stream counts of the
    * keyword-free entries it is the first cell of, the running bounds with
    * the number of members attaining each, the last published aggregate
    * (null once a bound or the topical members' keyword union may change)
    * and the last packed bounds (null once a bound may change).
    */
  final class Cell private[ERGrid] (val id: Long) {
    val entries = mutable.ArrayBuffer.empty[Entry]

    /** The entries whose sketch may contain a query keyword (`sk.kw` non-empty). */
    val topical = mutable.ArrayBuffer.empty[Entry]

    // Per stream seen, its sid and its count of keyword-free entries whose
    // first cell is this one: a few streams, so a linear scan of unboxed
    // arrays (a count that falls to 0 keeps its slot).
    private var freeSid   = new Array[Int](2)
    private var freeN     = new Array[Int](2)
    private var freeSids  = 0
    private var freeTotal = 0

    private def freeSlot(sid: Int): Int = {
      var i = 0
      while (i < freeSids && freeSid(i) != sid) i += 1
      i
    }

    /** Keyword-free entries of stream `sid` whose first cell is this one. */
    def keywordFree(sid: Int): Int = {
      val i = freeSlot(sid)
      if (i < freeSids) freeN(i) else 0
    }

    /** Keyword-free entries of every stream but `sid` whose first cell is
      * this one.
      */
    def keywordFreeOutside(sid: Int): Int = freeTotal - keywordFree(sid)

    private var lo: Array[Array[Double]] = _
    private var hi: Array[Array[Double]] = _
    private var loN: Array[Array[Int]]   = _
    private var hiN: Array[Array[Int]]   = _
    private var sMin: Array[Int]         = _
    private var sMax: Array[Int]         = _
    private var sMinN: Array[Int]        = _
    private var sMaxN: Array[Int]        = _

    /** The bounds and counts describe `entries`; false once a bound lost
      * its last attaining member.
      */
    private var exact = false
    private var agg: CellAgg = _
    private var packed: Array[Double] = _

    private[ERGrid] def add(e: Entry): Unit = {
      entries += e
      if (e.sk.kw.nonEmpty) {
        topical += e
        // A union only grows, so a published keyword set that holds the
        // entry's keywords stays exact.
        if (agg != null && !e.sk.kw.subsetOf(agg.kw)) agg = null
      } else if (e.first == id) countFree(e.sk.sid, 1)
      if (exact) fold(e.sk)
      else if (entries.length == 1) rebuild()
    }

    /** Removes the entry of `sk`'s tuple; false if the cell does not hold it. */
    private[ERGrid] def remove(sk: TupleSketch): Boolean = {
      val i = entries.indexWhere(e => e.sk.rid == sk.rid && e.sk.sid == sk.sid)
      if (i < 0) return false
      val e = entries.remove(i)
      if (e.sk.kw.nonEmpty) { topical.remove(topical.indexWhere(_ eq e)); agg = null }
      else if (e.first == id) countFree(e.sk.sid, -1)
      if (exact && entries.nonEmpty) unfold(sk)
      true
    }

    private def countFree(sid: Int, delta: Int): Unit = {
      val i = freeSlot(sid)
      if (i == freeSids) {
        if (i == freeSid.length) {
          freeSid = java.util.Arrays.copyOf(freeSid, 2 * i)
          freeN = java.util.Arrays.copyOf(freeN, 2 * i)
        }
        freeSid(i) = sid
        freeSids += 1
      }
      freeN(i) += delta
      freeTotal += delta
    }

    /** The published aggregate and packed bounds no longer hold. */
    private def stale(): Unit = { agg = null; packed = null }

    def aggregate: CellAgg = {
      if (!exact) { rebuild(); rebuilt += 1 }
      if (agg == null)
        agg = CellAgg(topical.iterator.flatMap(_.sk.kw).toSet, lo.map(_.clone), hi.map(_.clone), sMin.clone, sMax.clone)
      agg
    }

    /** The aggregate's size and distance bounds packed for `Pruning.ubSim`
      * (`Pruning.packBounds`). Unlike [[aggregate]], they are not rebuilt
      * when only the topical members, and so the keyword union, change.
      */
    def bounds: Array[Double] = {
      if (!exact) { rebuild(); rebuilt += 1 }
      if (packed == null) packed = Pruning.packBounds(sMin, sMax, lo, hi)
      packed
    }

    /** Bounds and counts from the members, in `CellAgg.of`'s order. */
    private def rebuild(): Unit = {
      val head = entries(0).sk
      lo = Array.tabulate(d)(j => Array.fill(head.attrs(j).distLo.length)(Double.MaxValue))
      hi = Array.tabulate(d)(j => Array.fill(head.attrs(j).distLo.length)(0.0))
      loN = lo.map(l => new Array[Int](l.length))
      hiN = hi.map(h => new Array[Int](h.length))
      sMin = Array.fill(d)(Int.MaxValue)
      sMax = new Array[Int](d)
      sMinN = new Array[Int](d)
      sMaxN = new Array[Int](d)
      exact = true
      var i = 0
      while (i < entries.length) { fold(entries(i).sk); i += 1 }
      stale()
    }

    private def fold(sk: TupleSketch): Unit = {
      var j = 0
      while (j < d) {
        val a = sk.attrs(j)
        if (a.sizeMin < sMin(j)) { sMin(j) = a.sizeMin; sMinN(j) = 1; stale() }
        else if (a.sizeMin == sMin(j)) sMinN(j) += 1
        if (a.sizeMax > sMax(j)) { sMax(j) = a.sizeMax; sMaxN(j) = 1; stale() }
        else if (a.sizeMax == sMax(j)) sMaxN(j) += 1
        val l = lo(j)
        val h = hi(j)
        val n = math.min(l.length, a.distLo.length)
        var p = 0
        while (p < n) {
          if (a.distLo(p) < l(p)) { l(p) = a.distLo(p); loN(j)(p) = 1; stale() }
          else if (a.distLo(p) == l(p)) loN(j)(p) += 1
          if (a.distHi(p) > h(p)) { h(p) = a.distHi(p); hiN(j)(p) = 1; stale() }
          else if (a.distHi(p) == h(p)) hiN(j)(p) += 1
          p += 1
        }
        j += 1
      }
    }

    /** Takes a removed member's counts out; a bound left without an
      * attaining member marks the cell for a recompute.
      */
    private def unfold(sk: TupleSketch): Unit = {
      var lost = false
      def drop(counts: Array[Int], i: Int): Unit = {
        counts(i) -= 1
        if (counts(i) == 0) lost = true
      }
      var j = 0
      while (j < d) {
        val a = sk.attrs(j)
        if (a.sizeMin == sMin(j)) drop(sMinN, j)
        if (a.sizeMax == sMax(j)) drop(sMaxN, j)
        val n = math.min(lo(j).length, a.distLo.length)
        var p = 0
        while (p < n) {
          if (a.distLo(p) == lo(j)(p)) drop(loN(j), p)
          if (a.distHi(p) == hi(j)(p)) drop(hiN(j), p)
          p += 1
        }
        j += 1
      }
      if (lost) { exact = false; stale() }
    }
  }
}

object ERGrid {

  /** A grid entry: `multiCell` marks a tuple whose interval box spans more
    * than one cell, and `first` is the lowest id of its cells, the one an
    * ascending traversal tests it in.
    */
  final case class Entry(sk: TupleSketch, multiCell: Boolean, first: Long)

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
    /** The aggregate of a non-empty member list, computed from scratch. */
    def of(members: Iterable[TupleSketch], d: Int): CellAgg = {
      val it   = members.iterator
      val head = it.next()
      var kw   = Set.empty[String]
      val lo   = Array.tabulate(d)(j => Array.fill(head.attrs(j).distLo.length)(Double.MaxValue))
      val hi   = Array.tabulate(d)(j => Array.fill(head.attrs(j).distLo.length)(0.0))
      val sMin = Array.fill(d)(Int.MaxValue)
      val sMax = new Array[Int](d)
      def add(sk: TupleSketch): Unit = {
        if (sk.kw.nonEmpty && !sk.kw.subsetOf(kw)) kw ++= sk.kw
        var j = 0
        while (j < d) {
          val a = sk.attrs(j)
          if (a.sizeMin < sMin(j)) sMin(j) = a.sizeMin
          if (a.sizeMax > sMax(j)) sMax(j) = a.sizeMax
          val n = math.min(lo(j).length, a.distLo.length)
          var p = 0
          while (p < n) {
            if (a.distLo(p) < lo(j)(p)) lo(j)(p) = a.distLo(p)
            if (a.distHi(p) > hi(j)(p)) hi(j)(p) = a.distHi(p)
            p += 1
          }
          j += 1
        }
      }
      add(head)
      while (it.hasNext) add(it.next())
      CellAgg(kw, lo, hi, sMin, sMax)
    }
  }
}
