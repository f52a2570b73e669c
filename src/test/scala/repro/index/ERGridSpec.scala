package repro.index

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core._
import repro.impute.Imputer

class ERGridSpec extends AnyFunSuite {

  private val d      = 2
  private val pivots = Pivots(Vector(Vector("p0 p1"), Vector("q0 q1")))
  private val vocab  = Set("topic0", "topic1")

  private def sketch(rid: Long, sid: Int, ts: Long, dists: Vector[Vector[(String, Double)]]): TupleSketch = {
    val t = ImputedTuple(rid, sid, ts, dists, Imputer.assembleInstances(dists))
    TupleSketch.of(t, pivots, vocab)
  }

  private def certain(rid: Long, sid: Int, a0: String, a1: String): TupleSketch =
    sketch(rid, sid, rid, Vector(Vector((a0, 1.0)), Vector((a1, 1.0))))

  test("a complete tuple occupies exactly one cell") {
    val g  = new ERGrid(d, 4)
    val sk = certain(1, 0, "p0 p1", "zz")
    assert(g.cellIdsOf(sk).size == 1)
    g.insert(sk)
    assert(g.size == 1)
    assert(g.nonEmptyCells.size == 1)
  }

  test("an uncertain tuple spans all cells its interval box intersects") {
    val g = new ERGrid(d, 4)
    // attr0 values at dist 0 ("p0 p1") and dist 1 ("zz") → box [0,1] on dim0.
    val sk = sketch(1, 0, 1, Vector(Vector(("p0 p1", 0.5), ("zz", 0.5)), Vector(("q0 q1", 1.0))))
    assert(g.cellIdsOf(sk).size == 4)
    g.insert(sk)
    assert(g.nonEmptyCells.map(_._2.size).sum == 4)
    assert(g.nonEmptyCells.forall(_._2.forall(_.multiCell)))
  }

  test("remove evicts the tuple from every cell") {
    val g  = new ERGrid(d, 4)
    val sk = sketch(1, 0, 1, Vector(Vector(("p0 p1", 0.5), ("zz", 0.5)), Vector(("q0 q1", 1.0))))
    g.insert(sk)
    g.remove(sk)
    assert(g.size == 0 && g.nonEmptyCells.isEmpty)
  }

  test("cell aggregates bound members' distance and size intervals") {
    val g   = new ERGrid(d, 4)
    val sks = Seq(certain(1, 0, "p0 p1", "q0"), certain(2, 1, "zz yy", "q0 q1 extra"))
    sks.foreach(g.insert)
    g.nonEmptyCells.foreach { case (agg, members) =>
      members.foreach { e =>
        (0 until d).foreach { j =>
          assert(e.sk.attrs(j).distLo(0) >= agg.lo(j)(0) - 1e-12)
          assert(e.sk.attrs(j).distHi(0) <= agg.hi(j)(0) + 1e-12)
          assert(e.sk.attrs(j).sizeMin >= agg.sizeMin(j))
          assert(e.sk.attrs(j).sizeMax <= agg.sizeMax(j))
        }
      }
    }
  }

  test("cell keyword aggregate is the union of member keyword sets") {
    val g = new ERGrid(d, 2)
    g.insert(certain(1, 0, "topic0 xx", "yy"))
    g.insert(certain(2, 1, "plain", "words"))
    val kws = g.nonEmptyCells.map(_._1.kw).toVector
    assert(kws.flatten.toSet == Set("topic0"))
  }

  test("aggregates are recomputed after removal (no stale keyword bits)") {
    val g  = new ERGrid(d, 2)
    val a  = certain(1, 0, "topic0 xx", "yy")
    val b  = certain(2, 0, "topic0 zz", "yy") // same cell? ensure same coords region
    g.insert(a)
    g.insert(b)
    g.remove(a)
    g.nonEmptyCells.foreach { case (agg, members) =>
      assert(members.nonEmpty)
      assert(agg.kw == members.flatMap(_.sk.kw).toSet)
    }
  }

  test("randomized membership: every inserted tuple is in some cell, dedup by flag works") {
    val rnd = new Random(31)
    val g   = new ERGrid(d, 5)
    val sks = (1 to 100).map { i =>
      val n = 1 + rnd.nextInt(3)
      val vs = Vector.fill(n)((Seq.fill(1 + rnd.nextInt(3))(s"p${rnd.nextInt(4)}").mkString(" "), 1.0 / n))
      sketch(i, i % 2, i, Vector(vs, Vector((s"q${rnd.nextInt(4)}", 1.0))))
    }
    sks.foreach(g.insert)
    assert(g.size == 100)
    // Count distinct rids across cells honoring the multiCell flag.
    val seen = collection.mutable.Set.empty[Long]
    g.nonEmptyCells.foreach { case (_, members) =>
      members.foreach { e =>
        if (!e.multiCell) {
          assert(seen.add(e.sk.rid), s"point tuple ${e.sk.rid} appeared twice")
        } else seen += e.sk.rid
      }
    }
    assert(seen == (1 to 100).map(_.toLong).toSet)
    sks.foreach(g.remove)
    assert(g.size == 0)
  }

  test("incremental aggregates equal a recompute after random inserts and removes") {
    def same(a: ERGrid.CellAgg, b: ERGrid.CellAgg): Boolean =
      a.kw == b.kw && a.sizeMin.sameElements(b.sizeMin) && a.sizeMax.sameElements(b.sizeMax) &&
        a.lo.indices.forall(j => a.lo(j).sameElements(b.lo(j)) && a.hi(j).sameElements(b.hi(j)))
    (1 to 20).foreach { seed =>
      val rnd  = new Random(seed)
      val g    = new ERGrid(d, 3)
      val live = collection.mutable.ArrayBuffer.empty[TupleSketch]
      (1 to 60).foreach { i =>
        if (live.nonEmpty && rnd.nextInt(3) == 0) g.remove(live.remove(rnd.nextInt(live.size)))
        else {
          val n  = 1 + rnd.nextInt(3)
          val vs = Vector.fill(n)((Seq.fill(1 + rnd.nextInt(3))(
            if (rnd.nextInt(5) == 0) s"topic${rnd.nextInt(2)}" else s"p${rnd.nextInt(4)}").mkString(" "), 1.0 / n))
          val sk = sketch(i, i % 2, i, Vector(vs.distinctBy(_._1), Vector((s"q${rnd.nextInt(3)} q1", 1.0))))
          g.insert(sk)
          live += sk
        }
        // Reading the cells cleans them, so later inserts fold into clean aggregates.
        g.nonEmptyCells.foreach { case (agg, members) =>
          assert(same(agg, ERGrid.CellAgg.of(members.map(_.sk), d)), s"seed $seed step $i")
        }
      }
    }
  }

  test("bucket boundaries: distance 1.0 lands in the last cell") {
    val g  = new ERGrid(d, 4)
    val sk = certain(1, 0, "unrelated tokens", "also unrelated") // dist 1 on both dims
    val id = g.cellIdsOf(sk)
    assert(id == Vector(4 * 3 + 3))
  }
}
