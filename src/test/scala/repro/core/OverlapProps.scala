package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.rng.Seed

/** The packed Theorem 4.2 bounds and the overlap bound that
  * `Pruning.testPair` reads before refining: the packed sums are the Vector
  * forms' bit for bit, a pair the overlap bound settles has no instance
  * pair above γ, and a settled refinement is `Pruning.refine`'s result.
  */
object OverlapProps extends Properties("Overlap") {
  import SketchDraws._

  private def bits(x: Double): Long = java.lang.Double.doubleToLongBits(x)

  property("union hashes are the sorted hashes of the distinct tokens of all possible values") =
    Prop.forAll(pair) { case (x, _) =>
      val h = sketch(x).unionHashes
      (0 until d).forall { j =>
        h(j).toSeq == x.attrDists(j).flatMap { case (v, _) => Text.tokens(v) }.distinct.map(_.hashCode).sorted
      }
    }

  property("a pair the overlap bound settles has no instance pair above γ") =
    Prop.forAll(pair, Gen.choose(0.0, d + 0.5)) { case ((x, y), g) =>
      val (sx, sy) = (sketch(x), sketch(y))
      val sim      = maxSim(x, y)
      Prop.all((gammas :+ g).filter(gamma => Pruning.overlapBound(sx, sy, gamma) <= gamma).map { gamma =>
        val exceeds = for (a <- x.instances; b <- y.instances if a.simExceeds(b, gamma)) yield (a, b)
        Prop(sim <= gamma && exceeds.isEmpty) :| s"γ $gamma, max sim $sim, $exceeds"
      }: _*)
    }

  property("a sketch without union hashes never settles by overlap") =
    Prop.forAll(pair, Gen.choose(0.0, d + 0.5)) { case ((x, y), g) =>
      val (sx, sy) = (sketch(x), sketch(y))
      (gammas :+ g).forall { gamma =>
        Pruning.overlapBound(sx.copy(unionHashes = null), sy, gamma) == Double.PositiveInfinity &&
        Pruning.overlapBound(sx, sy.copy(unionHashes = null), gamma) == Double.PositiveInfinity
      }
    }

  property("testPair's refinement is refine's field for field, settled by either filter") =
    Prop.forAll(pair, alpha, Gen.choose(0.0, d + 0.5)) { case ((x, y), a, g) =>
      val (sx, sy) = (sketch(x), sketch(y))
      Prop.all((gammas :+ g).map { gamma =>
        val settles = Pruning.sharedAttrs(sx, sy) <= gamma || Pruning.overlapBound(sx, sy, gamma) <= gamma
        Pruning.testPair(sx, sx.hasAnyKeyword(k), sy, k, gamma, a) match {
          case r: Pruning.Refined =>
            val full = Pruning.refine(x, y, k, gamma, a)
            Prop(r.settled == settles && r.copy(settled = false) == full) :| s"γ $gamma, α $a: $r vs $full"
          case _ => Prop.passed
        }
      }: _*)
    }

  property("some drawn pairs settle by overlap but not by signature, and some enumerate, at γ = 1 and 2") = {
    val draws = Gen.listOfN(200, pair).pureApply(Gen.Parameters.default, Seed(17L)).map { case (x, y) =>
      (sketch(x), sketch(y))
    }
    Prop.all(Seq(1.0, 2.0).map { gamma =>
      val byOverlap = draws.count { case (sx, sy) =>
        Pruning.sharedAttrs(sx, sy) > gamma && Pruning.overlapBound(sx, sy, gamma) <= gamma
      }
      val enumerated = draws.count { case (sx, sy) => Pruning.overlapBound(sx, sy, gamma) > gamma }
      Prop(byOverlap > 0 && enumerated > 0) :| s"γ $gamma: $byOverlap by overlap only, $enumerated enumerate"
    }: _*)
  }

  /** One attribute's hand-built bounds: 1 to 3 pivots, so two attributes
    * or two sketches may hold unequal pivot counts, with distances that
    * often tie at 0, 0.5 and 1.
    */
  private val attrSketch: Gen[AttrSketch] = {
    val dist = Gen.frequency(1 -> Gen.oneOf(0.0, 0.5, 1.0), 3 -> Gen.choose(0.0, 1.0))
    for {
      s1 <- Gen.choose(0, 6)
      s2 <- Gen.choose(0, 6)
      n  <- Gen.choose(1, 3)
      a  <- Gen.listOfN(n, dist)
      b  <- Gen.listOfN(n, dist)
    } yield {
      val lo = a.zip(b).map { case (u, v) => math.min(u, v) }.toArray
      val hi = a.zip(b).map { case (u, v) => math.max(u, v) }.toArray
      AttrSketch(math.min(s1, s2), math.max(s1, s2), lo, hi, lo)
    }
  }

  private def handBuilt(attrs: Vector[AttrSketch]): TupleSketch =
    TupleSketch(ImputedTuple(0, 0, 0, Vector.fill(attrs.size)(Vector(("x", 1.0))), Vector.empty), Set.empty, attrs,
      Array.fill(attrs.size * TupleSketch.SigWords)(-1L))

  private val sketchPair: Gen[(Vector[AttrSketch], Vector[AttrSketch])] = for {
    n <- Gen.choose(1, 5)
    x <- Gen.listOfN(n, attrSketch)
    y <- Gen.listOfN(n, attrSketch)
  } yield (x.toVector, y.toVector)

  property("the packed Lemma 4.1 and 4.2 sums equal ubSimBySize and ubSimByPivot bit for bit") =
    Prop.forAll(sketchPair) { case (x, y) =>
      val bySize  = Pruning.ubSimBySize(x, y)
      val byPivot = Pruning.ubSimByPivot(x, y)
      // ubSim is the smaller sum. Pivot intervals [0, 1] make every Lemma
      // 4.2 term exactly 1, and sizes [0, Int.MaxValue] every Lemma 4.1
      // term, so the other sum is the attribute count, no less than the
      // one under test, and ubSim returns the one under test.
      def noPivots(a: Vector[AttrSketch]) =
        a.map(s => s.copy(distLo = s.distLo.map(_ => 0.0), distHi = s.distHi.map(_ => 1.0)))
      def noSizes(a: Vector[AttrSketch]) = a.map(_.copy(sizeMin = 0, sizeMax = Int.MaxValue))
      val packed      = Pruning.ubSim(handBuilt(x).bounds, handBuilt(y).bounds)
      val packedSize  = Pruning.ubSim(handBuilt(noPivots(x)).bounds, handBuilt(noPivots(y)).bounds)
      val packedPivot = Pruning.ubSim(handBuilt(noSizes(x)).bounds, handBuilt(noSizes(y)).bounds)
      Prop(bits(packed) == bits(math.min(bySize, byPivot)) && bits(packedSize) == bits(bySize) &&
        bits(packedPivot) == bits(byPivot)) :| s"size $bySize/$packedSize, pivot $byPivot/$packedPivot, min $packed"
    }
}
