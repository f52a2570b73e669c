package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class ModelSpec extends AnyFunSuite {

  private def rec(rid: Long, attrs: Option[String]*) = Record(rid, 0, rid, attrs.toVector)

  test("Record: missing and isComplete") {
    val r = rec(1, Some("a"), None, Some("c"))
    assert(r.missing == Vector(1))
    assert(!r.isComplete)
    assert(rec(2, Some("a"), Some("b"), Some("c")).isComplete)
  }

  test("Instance: sim sums per-attribute Jaccard (Eq. 1)") {
    val x = Instance(Vector("a b", "p q"), 1.0)
    val y = Instance(Vector("a b", "p r"), 1.0)
    assert(math.abs(x.sim(y) - (1.0 + 1.0 / 3.0)) < 1e-12)
  }

  test("Instance: hasKeyword checks any attribute") {
    val x = Instance(Vector("alpha beta", "topic3 gamma"), 1.0)
    assert(x.hasKeyword(Set("topic3")))
    assert(!x.hasKeyword(Set("topic4")))
    assert(!x.hasKeyword(Set.empty))
  }

  private val pivots = Pivots(Vector(Vector("p q r"), Vector("u v")))

  test("TupleSketch: kw unions the keywords over the value distribution") {
    val t = ImputedTuple(1, 0, 0,
      Vector(Vector(("topic1 x", 0.5), ("y", 0.5)), Vector(("topic2 z", 1.0))),
      Vector.empty)
    assert(TupleSketch.of(t, pivots, Set("topic1", "topic2", "topic9")).kw == Set("topic1", "topic2"))
  }

  test("TupleSketch: size interval covers all values in the distribution") {
    val t = ImputedTuple(1, 0, 0,
      Vector(Vector(("a", 0.5), ("a b c", 0.5)), Vector(("u v", 1.0))),
      Vector.empty)
    val sk = TupleSketch.of(t, pivots, Set.empty)
    assert(sk.attrs(0).sizeMin == 1 && sk.attrs(0).sizeMax == 3)
    assert(sk.attrs(1).sizeMin == 2 && sk.attrs(1).sizeMax == 2)
  }

  test("TupleSketch: distance intervals bound every value's pivot distance") {
    val rnd = new Random(7)
    (1 to 100).foreach { _ =>
      val vals = Vector.fill(1 + rnd.nextInt(4))(
        (Seq.fill(1 + rnd.nextInt(4))(s"t${rnd.nextInt(6)}").mkString(" "), rnd.nextDouble()))
      val norm = vals.map(_._2).sum
      val dist = vals.map { case (v, p) => (v, p / norm) }
      val t    = ImputedTuple(1, 0, 0, Vector(dist, Vector(("u", 1.0))), Vector.empty)
      val sk   = TupleSketch.of(t, pivots, Set.empty)
      dist.foreach { case (v, _) =>
        val d = Text.jdist(Text.tokens(v), pivots.mainTokens(0))
        assert(d >= sk.attrs(0).distLo(0) - 1e-12 && d <= sk.attrs(0).distHi(0) + 1e-12)
      }
    }
  }

  test("TupleSketch: expected distance is the probability-weighted mean") {
    val t = ImputedTuple(1, 0, 0,
      Vector(Vector(("p q r", 0.5), ("zz", 0.5)), Vector(("u v", 1.0))),
      Vector.empty)
    val sk = TupleSketch.of(t, pivots, Set.empty)
    // dist("p q r", piv) = 0; dist("zz", piv) = 1 → E = 0.5
    assert(math.abs(sk.attrs(0).distE(0) - 0.5) < 1e-12)
    assert(sk.attrs(1).distE(0) == 0.0)
  }

  test("TupleSketch: lb/ub/E totals are sums over attributes") {
    val t = ImputedTuple(1, 0, 0,
      Vector(Vector(("p", 1.0)), Vector(("u v", 1.0))), Vector.empty)
    val sk = TupleSketch.of(t, pivots, Set.empty)
    assert(math.abs(sk.lbMain - (sk.attrs(0).distLo(0) + sk.attrs(1).distLo(0))) < 1e-12)
    assert(math.abs(sk.ubMain - (sk.attrs(0).distHi(0) + sk.attrs(1).distHi(0))) < 1e-12)
    assert(math.abs(sk.eMain - (sk.attrs(0).distE(0) + sk.attrs(1).distE(0))) < 1e-12)
  }

  test("TupleSketch: keyword set collects topic-vocabulary tokens") {
    val t = ImputedTuple(1, 0, 0,
      Vector(Vector(("topic5 foo", 0.3), ("bar", 0.7)), Vector(("baz", 1.0))), Vector.empty)
    val sk = TupleSketch.of(t, pivots, Set("topic5", "topic6"))
    assert(sk.kw == Set("topic5"))
    assert(sk.hasAnyKeyword(Set("topic5")))
    assert(!sk.hasAnyKeyword(Set("topic6")))
  }

  test("Pivots: coord is the main-pivot Jaccard distance") {
    assert(TextRef.coord(pivots, 0, "p q r") == 0.0)
    assert(TextRef.coord(pivots, 0, "none of these") == 1.0)
  }
}
