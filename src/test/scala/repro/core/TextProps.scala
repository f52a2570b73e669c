package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import org.scalacheck.{Gen, Prop, Properties}

/** ScalaCheck properties for the similarity substrate (native scalacheck
  * runner; complements the seeded-loop tests in TextSpec/PruningSpec). The
  * token arrays are checked against the set forms of [[TextRef]].
  */
object TextProps extends Properties("Text") {

  // "ac0" and "aan" share String.hashCode 96334, so the hash order needs its
  // string tie-break.
  private val pool = (0 until 12).map(i => s"t$i") ++ Seq("ac0", "aan")

  private val tokenSet: Gen[Set[String]] =
    Gen.listOf(Gen.oneOf(pool)).map(_.toSet)

  private val rawValue: Gen[String] =
    Gen.listOf(Gen.oneOf(pool ++ Seq("T1", "AAN", "x-y", ",", " ", "Ac0!"))).map(_.mkString(" "))

  property("jaccard within [0,1]") = Prop.forAll(tokenSet, tokenSet) { (a, b) =>
    val j = Text.jaccard(TextRef.arr(a), TextRef.arr(b))
    j >= 0.0 && j <= 1.0
  }

  property("jaccard symmetric") = Prop.forAll(tokenSet, tokenSet) { (a, b) =>
    Text.jaccard(TextRef.arr(a), TextRef.arr(b)) == Text.jaccard(TextRef.arr(b), TextRef.arr(a))
  }

  property("jaccard identity") = Prop.forAll(tokenSet) { a =>
    Text.jaccard(TextRef.arr(a), TextRef.arr(a)) == 1.0
  }

  property("jdist triangle inequality") = Prop.forAll(tokenSet, tokenSet, tokenSet) { (a, b, c) =>
    val (x, y, z) = (TextRef.arr(a), TextRef.arr(b), TextRef.arr(c))
    Text.jdist(x, z) <= Text.jdist(x, y) + Text.jdist(y, z) + 1e-12
  }

  property("tokens of canonical form round-trip") = Prop.forAll(tokenSet) { a =>
    Text.tokens(a.toSeq.sorted.mkString(" ")).toSet == a
  }

  property("tokens hold the reference token set, distinct, in hash order") = Prop.forAll(rawValue) { s =>
    val t = Text.tokens(s)
    t.toSet == TextRef.tokenSet(s) &&
    t.indices.drop(1).forall { i =>
      val (p, q) = (t(i - 1), t(i))
      p.hashCode < q.hashCode || (p.hashCode == q.hashCode && p.compareTo(q) < 0)
    }
  }

  private val maybeEmpty: Gen[Set[String]] = Gen.frequency(1 -> Gen.const(Set.empty[String]), 9 -> tokenSet)

  property("array jaccard equals set jaccard exactly") =
    Prop.forAll(maybeEmpty, tokenSet) { (a, b) =>
      Text.jaccard(TextRef.arr(a), TextRef.arr(b)) == TextRef.jaccard(a, b) &&
      Text.jaccard(Text.Empty, Text.Empty) == TextRef.jaccard(Set.empty, Set.empty)
    }

  property("probe overlap is the set intersection, and with a need it reaches need exactly when that does") =
    Prop.forAll(maybeEmpty, maybeEmpty) { (a, b) =>
      val (q, c) = (TextRef.arr(a), TextRef.arr(b))
      val p      = new Text.Probe(q)
      val inter  = a.intersect(b).size
      (0 to pool.size + 1).forall { need =>
        val got = p.overlap(c, Text.hashes(c), need)
        (got >= need) == (inter >= need) && (got < need || got == inter)
      } && p.jaccard(c, Text.hashes(c)) == Text.jaccard(q, c)
    }

  property("contains agrees with the token set") = Prop.forAll(tokenSet, Gen.oneOf(pool)) { (a, t) =>
    Text.contains(TextRef.arr(a), t) == a.contains(t)
  }

  property("an instance keeps its similarities through Java serialization") =
    Prop.forAll(Gen.listOfN(3, rawValue), Gen.listOfN(3, rawValue), Gen.oneOf(true, false)) { (xs, ys, warm) =>
      val x = Instance(xs.toVector, 1.0)
      val y = Instance(ys.toVector, 1.0)
      def serialize(i: Instance): Array[Byte] = {
        val bytes = new ByteArrayOutputStream()
        val out   = new ObjectOutputStream(bytes)
        out.writeObject(i)
        out.close()
        bytes.toByteArray
      }
      if (warm) { // serialize with the token arrays, probe tables and hashes already built
        x.sim(y)
        x.simExceeds(y, 0.0)
        y.simExceeds(x, 0.0)
      }
      val bytes = serialize(x)
      val back  = new ObjectInputStream(new ByteArrayInputStream(bytes)).readObject().asInstanceOf[Instance]
      // The token arrays, probe tables and hashes are transient: a warm
      // instance writes what a cold one does.
      val lean = !warm || bytes.length == serialize(Instance(xs.toVector, 1.0)).length
      lean && back.sim(y) == x.sim(y) && y.sim(back) == x.sim(y)
    }

  property("simExceeds agrees with sim > gamma, also at gamma = sim") =
    Prop.forAll(Gen.listOfN(3, rawValue), Gen.listOfN(3, rawValue), Gen.choose(0.0, 3.0), Gen.choose(0, 3)) {
      (xs, ys, g, pick) =>
        val x     = Instance(xs.toVector, 1.0)
        val y     = Instance(ys.toVector, 1.0)
        val s     = x.sim(y)
        val gamma = Seq(g, s, math.nextDown(s), math.nextUp(s))(pick)
        x.simExceeds(y, gamma) == (s > gamma)
    }

  property("size bound dominates similarity") = Prop.forAll(tokenSet, tokenSet) { (a, b) =>
    Text.jaccard(TextRef.arr(a), TextRef.arr(b)) <= Pruning.ubSimSizeAttr(a.size, a.size, b.size, b.size) + 1e-12
  }

  property("minDistGap lower-bounds |x - y| for points in the intervals") =
    Prop.forAll(Gen.choose(0.0, 1.0), Gen.choose(0.0, 1.0)) { (x, y) =>
      Pruning.minDistGap(x, x, y, y) <= math.abs(x - y) + 1e-12
    }
}
