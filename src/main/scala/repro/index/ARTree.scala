package repro.index

/** Axis-aligned d-dimensional bounding box. */
final class MBR(val lo: Array[Double], val hi: Array[Double]) extends Serializable {
  def dim: Int = lo.length

  def intersects(o: MBR): Boolean = {
    var i = 0
    while (i < dim) {
      if (lo(i) > o.hi(i) + 1e-12 || hi(i) < o.lo(i) - 1e-12) return false
      i += 1
    }
    true
  }

  def containsPoint(pt: Array[Double]): Boolean = {
    var i = 0
    while (i < dim) {
      if (pt(i) < lo(i) - 1e-12 || pt(i) > hi(i) + 1e-12) return false
      i += 1
    }
    true
  }

  def center(i: Int): Double = (lo(i) + hi(i)) / 2.0

  def union(o: MBR): MBR =
    new MBR(Array.tabulate(dim)(i => math.min(lo(i), o.lo(i))),
            Array.tabulate(dim)(i => math.max(hi(i), o.hi(i))))

  override def toString: String =
    (0 until dim).map(i => f"[${lo(i)}%.3f,${hi(i)}%.3f]").mkString("×")
}

object MBR {
  def point(pt: Array[Double]): MBR = new MBR(pt.clone(), pt.clone())
  def of(lo: Array[Double], hi: Array[Double]): MBR = new MBR(lo, hi)
  def unionAll(ms: Iterable[MBR]): MBR = ms.reduce(_ union _)
}

/** Aggregate R-tree (aR-tree [20]): a bulk-loaded R-tree whose every node
  * carries an aggregate value merged bottom-up. The CDD-index and DR-index
  * (§5.1) instantiate it with different aggregate payloads; node-level
  * pruning reads `(MBR, aggregate)` and decides whether to descend.
  *
  * Bulk load is an STR-style tile pack (sort by the cycling dimension,
  * chunk, recurse) — static is enough: both indexes are built offline in
  * the pre-computation phase (Alg. 1, lines 1–4).
  */
final class ARTree[T, A] private (val root: ARTree.Node[T, A], val size: Int) extends Serializable {

  /** Visit all entries whose node path survives `keepNode` and whose entry
    * survives `keepEntry`; calls `f` on surviving entries. Returns the
    * number of leaf nodes visited (the complexity-analysis counter of §5.1).
    */
  def search(keepNode: (MBR, A) => Boolean, keepEntry: (MBR, T) => Boolean)(f: T => Unit): Int = {
    var leaves = 0
    def go(n: ARTree.Node[T, A]): Unit = n match {
      case ARTree.Leaf(entries, mbr, agg) =>
        if (keepNode(mbr, agg)) {
          leaves += 1
          entries.foreach { case (m, t) => if (keepEntry(m, t)) f(t) }
        }
      case ARTree.Inner(children, mbr, agg) =>
        if (keepNode(mbr, agg)) children.foreach(go)
    }
    go(root)
    leaves
  }

  def allEntries: Vector[T] = {
    val b = Vector.newBuilder[T]
    search((_, _) => true, (_, _) => true)(b += _)
    b.result()
  }
}

object ARTree {
  sealed trait Node[T, A] { def mbr: MBR; def agg: A }
  final case class Leaf[T, A](entries: Vector[(MBR, T)], mbr: MBR, agg: A)   extends Node[T, A]
  final case class Inner[T, A](children: Vector[Node[T, A]], mbr: MBR, agg: A) extends Node[T, A]

  val LeafCap = 16
  val Fanout  = 8

  def build[T, A](dim: Int, items: Seq[(MBR, T)])(aggOf: T => A, aggMerge: (A, A) => A): ARTree[T, A] = {
    require(items.nonEmpty, "cannot build an aR-tree over zero entries")
    def pack(es: Vector[(MBR, T)], depth: Int): Node[T, A] =
      if (es.size <= LeafCap) {
        val mbr = MBR.unionAll(es.map(_._1))
        val agg = es.map(e => aggOf(e._2)).reduce(aggMerge)
        Leaf(es, mbr, agg)
      } else {
        val sorted    = es.sortBy(_._1.center(depth % dim))
        val chunkSize = math.max(LeafCap, math.ceil(es.size.toDouble / Fanout).toInt)
        val children  = sorted.grouped(chunkSize).map(pack(_, depth + 1)).toVector
        Inner(children, MBR.unionAll(children.map(_.mbr)), children.map(_.agg).reduce(aggMerge))
      }
    new ARTree(pack(items.toVector, 0), items.size)
  }
}
