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

  test("packed cell bounds equal a recompute's, read without the aggregate") {
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
        g.cellsInOrder.foreach { c =>
          val agg = ERGrid.CellAgg.of(c.entries.map(_.sk), d)
          assert(c.bounds.sameElements(Pruning.packBounds(agg.sizeMin, agg.sizeMax, agg.lo, agg.hi)),
            s"seed $seed step $i cell ${c.id}")
        }
      }
    }
  }

  private def same(a: ERGrid.CellAgg, b: ERGrid.CellAgg): Boolean =
    a.kw == b.kw && a.sizeMin.sameElements(b.sizeMin) && a.sizeMax.sameElements(b.sizeMax) &&
      a.lo.indices.forall(j => a.lo(j).sameElements(b.lo(j)) && a.hi(j).sameElements(b.hi(j)))

  private def assertExact(g: ERGrid, live: Iterable[TupleSketch], clue: String): Unit = {
    var incidences = 0
    val seen       = collection.mutable.Set.empty[(Long, Int)]
    g.nonEmptyCells.foreach { case (agg, members) =>
      assert(members.nonEmpty, clue)
      assert(same(agg, ERGrid.CellAgg.of(members.map(_.sk), d)), clue)
      incidences += members.size
      members.foreach(e => seen += ((e.sk.rid, e.sk.sid)))
    }
    assert(seen == live.map(sk => (sk.rid, sk.sid)).toSet, clue)
    assert(incidences == live.iterator.map(g.cellIdsOf(_).size).sum, clue)
  }

  test("incremental aggregates stay exact over long unread sequences with tied bounds") {
    // Few distinct values, so many members tie on every bound; cells are
    // read only now and then, so removes and inserts pile up between reads.
    val values = Vector("p0 p1", "p0", "p1 zz", "topic0 p0", "topic1 zz yy", "zz", "")
    (1 to 20).foreach { seed =>
      val rnd  = new Random(seed)
      val g    = new ERGrid(d, 2)
      val live = collection.mutable.ArrayBuffer.empty[TupleSketch]
      (1 to 400).foreach { i =>
        val r = rnd.nextInt(10)
        if (live.nonEmpty && r < 2) g.remove(live.remove(rnd.nextInt(live.size)))
        else if (live.nonEmpty && r < 4) {
          // Remove an extreme: the member with the lowest distance (or the
          // largest size) on attribute 0, tied with others or not.
          val byLo = rnd.nextBoolean()
          val k = live.indices.minBy { m =>
            val a = live(m).attrs(0)
            if (byLo) a.distLo(0) else -a.sizeMax.toDouble
          }
          g.remove(live.remove(k))
        } else {
          val n  = 1 + rnd.nextInt(2)
          val vs = Vector.fill(n)(values(rnd.nextInt(values.size))).distinct.map(v => (v, 1.0 / n))
          val sk = sketch(i, i % 2, i, Vector(vs, Vector((values(rnd.nextInt(values.size)), 1.0))))
          // A duplicate of the new tuple under another rid ties every bound.
          val dup = if (rnd.nextInt(4) == 0) Some(sketch(100000 + i, i % 2, i, sk.t.attrDists)) else None
          (sk +: dup.toSeq).foreach { s => g.insert(s); live += s }
        }
        if (rnd.nextInt(25) == 0) assertExact(g, live, s"seed $seed step $i")
      }
      assertExact(g, live, s"seed $seed end")
      assert(g.size == live.size)
    }
  }

  /** Each entry's first cell, and each cell's topical part and first-cell
    * keyword-free counts, against a recount from the live sketches, and the
    * cells' members in ascending cell order against every (tuple, cell)
    * incidence.
    */
  private def assertTopicSplit(g: ERGrid, live: Iterable[TupleSketch], sids: Seq[Int], clue: String): Unit = {
    val cells = g.cellsInOrder.toVector
    val ids   = cells.map(_.id)
    assert(ids == ids.sorted && ids.distinct == ids, clue)
    assert(g.nonEmptyCells.map(_._2.toVector).toVector == cells.map(_.entries.toVector), clue)
    val incidences = for (c <- cells; e <- c.entries) yield (e.sk.rid, e.sk.sid, c.id)
    assert(incidences.sorted == live.toVector.flatMap(sk => g.cellIdsOf(sk).map(c => (sk.rid, sk.sid, c))).sorted, clue)
    def key(e: ERGrid.Entry) = (e.sk.rid, e.sk.sid)
    cells.foreach { c =>
      c.entries.foreach { e =>
        val ids = g.cellIdsOf(e.sk)
        assert(e.first == ids.head && e.multiCell == (ids.size > 1), s"$clue cell ${c.id} entry ${key(e)}")
      }
      assert(c.topical.map(key).sorted == c.entries.filter(_.sk.kw.nonEmpty).map(key).sorted, s"$clue cell ${c.id}")
      val free = sids.map { sid =>
        live.count(sk => sk.sid == sid && sk.kw.isEmpty && g.cellIdsOf(sk).head == c.id)
      }
      sids.indices.foreach { i =>
        assert(c.keywordFree(sids(i)) == free(i), s"$clue cell ${c.id} stream ${sids(i)}")
        assert(c.keywordFreeOutside(sids(i)) == free.sum - free(i), s"$clue cell ${c.id} stream ${sids(i)}")
      }
    }
  }

  test("topical parts and first-cell keyword-free counts equal a recount after random inserts and removes") {
    // Three streams, multi-cell boxes (two values per attribute), ties on
    // every bound (few distinct values, duplicates under other rids), and
    // sketches with and without query keywords.
    val values = Vector("p0 p1", "p0", "p1 zz", "topic0 p0", "topic1 zz yy", "zz", "", "q0 q1")
    val sids   = Seq(0, 1, 2, 3) // stream 3 never occurs
    (1 to 20).foreach { seed =>
      val rnd  = new Random(seed)
      val g    = new ERGrid(d, 3)
      val live = collection.mutable.ArrayBuffer.empty[TupleSketch]
      (1 to 150).foreach { i =>
        if (live.nonEmpty && rnd.nextInt(3) == 0) g.remove(live.remove(rnd.nextInt(live.size)))
        else {
          def dist() = {
            val n = 1 + rnd.nextInt(2)
            Vector.fill(n)(values(rnd.nextInt(values.size))).distinct.map(v => (v, 1.0 / n))
          }
          val sk  = sketch(i, rnd.nextInt(3), i, Vector(dist(), dist()))
          val dup = if (rnd.nextInt(4) == 0) Some(sketch(100000 + i, rnd.nextInt(3), i, sk.t.attrDists)) else None
          (sk +: dup.toSeq).foreach { s => g.insert(s); live += s }
        }
        assertTopicSplit(g, live, sids, s"seed $seed step $i")
      }
      assert(live.exists(_.kw.isEmpty) && live.exists(_.kw.nonEmpty) && live.exists(g.cellIdsOf(_).size > 1))
      live.toVector.foreach { sk => g.remove(sk); live -= sk }
      assertTopicSplit(g, live, sids, s"seed $seed emptied")
      assert(g.cellsInOrder.isEmpty)
    }
  }

  test("a bound attained by two members survives removing one without a recompute") {
    val g = new ERGrid(d, 1) // one cell holds every tuple
    val a = certain(1, 0, "topic0 q", "q0")
    val b = certain(2, 1, "topic1 q", "q0") // ties `a` on every bound, other keyword
    val c = certain(3, 0, "p0 p1", "q0 q1 extra")
    Seq(a, b, c).foreach(g.insert)
    assertExact(g, Seq(a, b, c), "all three")
    g.remove(a)
    assertExact(g, Seq(b, c), "without a")
    assert(g.nonEmptyCells.next()._1.kw == Set("topic1"))
    assert(g.recomputes == 0)
    g.remove(c) // c alone attains the minimum distance and the largest size
    assertExact(g, Seq(b), "without c")
    assert(g.recomputes == 1)
  }

  test("an emptied cell leaves the traversal") {
    val g = new ERGrid(d, 4)
    val a = certain(1, 0, "p0 p1", "q0 q1")
    val b = certain(2, 1, "zz", "yy")
    g.insert(a)
    g.insert(b)
    assert(g.nonEmptyCells.size == 2)
    g.remove(a)
    val left = g.nonEmptyCells.toVector
    assert(left.size == 1 && left.head._2.map(_.sk.rid) == Seq(2L))
  }

  test("traversal visits cells in ascending flat-id order") {
    // Main-pivot distances 0, 1/3, 1/2, 2/3, 1 land in buckets 0, 6, 10, 13
    // and 19 of 20, so flat ids spread over 0–399.
    val a0  = Vector("p0 p1", "p0 p1 x", "p0", "p0 x", "zz")
    val a1  = Vector("q0 q1", "q0 q1 x", "q0", "q0 x", "zz")
    val rnd = new Random(3)
    val g   = new ERGrid(d, 20)
    (1 to 40).foreach(i => g.insert(certain(i, i % 2, a0(rnd.nextInt(5)), a1(rnd.nextInt(5)))))
    val ids = g.nonEmptyCells.map { case (_, members) => g.cellIdsOf(members.head.sk).head }.toVector
    assert(ids.size > 12 && ids == ids.sorted && ids.distinct == ids)
  }

  test("a 12-dimensional grid holds only the cells it uses") {
    val dims = 12
    val piv  = Pivots(Vector.fill(dims)(Vector("p0 p1")))
    def sk12(rid: Long, vs: Vector[Vector[(String, Double)]]): TupleSketch =
      TupleSketch.of(ImputedTuple(rid, 0, rid, vs, Imputer.assembleInstances(vs)), piv, vocab)
    val g = new ERGrid(dims, 5) // 5^12 = 244M cells if they were allocated
    val point  = sk12(1, Vector.fill(dims)(Vector(("p0 p1", 1.0))))
    val spread = sk12(2, Vector.fill(dims - 1)(Vector(("p0", 1.0))) :+ Vector(("p0 p1", 0.5), ("zz", 0.5)))
    g.insert(point)
    g.insert(spread)
    val ids = (g.cellIdsOf(point) ++ g.cellIdsOf(spread)).distinct
    assert(ids.size == 6)
    assert(g.nonEmptyCells.size == ids.size)
    g.remove(spread)
    assert(g.nonEmptyCells.size == 1)
    new ERGrid(27, 5) // 5^27 < 2^63
    val e = intercept[IllegalArgumentException](new ERGrid(28, 5))
    assert(e.getMessage.contains("overflow"))
  }

  test("bucket boundaries: distance 1.0 lands in the last cell") {
    val g  = new ERGrid(d, 4)
    val sk = certain(1, 0, "unrelated tokens", "also unrelated") // dist 1 on both dims
    val id = g.cellIdsOf(sk)
    assert(id == Vector(4 * 3 + 3))
  }
}
