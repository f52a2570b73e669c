package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.rng.Seed
import repro.impute.Imputer

/** The token signature of `TupleSketch` and the refinements
  * `Pruning.testPair` settles from it: a pair whose signatures share at most
  * γ attributes has no instance pair above γ, and the mass-only walk returns
  * `Pruning.refine`'s result field for field.
  */
object SignatureProps extends Properties("Signature") {

  private val d      = 3
  private val pivots = Pivots(Vector(Vector("t0 t1", "t2"), Vector("t0 t3"), Vector("t1 t4")))
  private val k      = Set("t1", "aan")

  // "ac0" and "aan" share String.hashCode 96334, so they set the same bit
  // without being one token; the sentinels are the tokens a value that no
  // sample imputes falls back to.
  private val pool = Seq("t0", "t1", "t2", "t3", "ac0", "aan", Imputer.missSentinel(7, 0), Imputer.missSentinel(8, 0))

  /** An attribute value: tokens from the pool, or no token at all. */
  private val value: Gen[String] = Gen.frequency(
    1 -> Gen.oneOf("", "-- ,"),
    6 -> Gen.choose(1, 3).flatMap(Gen.listOfN(_, Gen.oneOf(pool))).map(_.mkString(" ")),
  )

  /** One to three distinct values, their probabilities summing to 1. */
  private val dist: Gen[Vector[(String, Double)]] = for {
    vs <- Gen.choose(1, 3).flatMap(Gen.listOfN(_, value))
    ws <- Gen.listOfN(vs.size, Gen.choose(0.05, 1.0))
  } yield {
    val byValue = vs.zip(ws).distinctBy(_._1).toVector
    val norm    = byValue.map(_._2).sum
    byValue.map { case (v, w) => (v, w / norm) }
  }

  private def tuple(rid: Long): Gen[ImputedTuple] =
    Gen.listOfN(d, dist).map { ds =>
      ImputedTuple(rid, (rid % 2).toInt, rid, ds.toVector, Imputer.assembleInstances(ds.toVector))
    }

  private val pair: Gen[(ImputedTuple, ImputedTuple)] = Gen.zip(tuple(0), tuple(1))

  private val alpha: Gen[Double] = Gen.oneOf(Gen.const(0.0), Gen.const(0.5), Gen.const(1.0), Gen.choose(0.0, 1.0))

  /** γ at every integer a shared count can take, and their neighbours. */
  private val gammas: Seq[Double] =
    (0 to d).map(_.toDouble).flatMap(g => Seq(g, math.nextUp(g), math.nextDown(g))).filter(_ >= 0)

  private def sketch(t: ImputedTuple): TupleSketch = TupleSketch.of(t, pivots, k)

  private def maxSim(x: ImputedTuple, y: ImputedTuple): Double =
    (for (a <- x.instances; b <- y.instances) yield a.sim(b)).max

  property("a token's bit lies in 1 until 64 * SigWords; bit 0 marks an empty value") =
    Prop.forAll { (h: Int) =>
      val b = TupleSketch.tokenBit(h)
      b >= 1 && b < 64 * TupleSketch.SigWords
    }

  property("signatures share a bit wherever two possible values share a token or are both empty") =
    Prop.forAll(pair) { case (x, y) =>
      val overlapping = (0 until d).count { j =>
        x.attrDists(j).exists { case (u, _) =>
          y.attrDists(j).exists { case (v, _) => Text.jaccard(Text.tokens(u), Text.tokens(v)) > 0 }
        }
      }
      overlapping <= Pruning.sharedAttrs(sketch(x), sketch(y))
    }

  property("a settled pair has no instance pair above γ, and the mass-only walk is refine's result") =
    Prop.forAll(pair, alpha, Gen.choose(0.0, d + 0.5)) { case ((x, y), a, g) =>
      val shared = Pruning.sharedAttrs(sketch(x), sketch(y))
      val sim    = maxSim(x, y)
      Prop.all((gammas :+ g).filter(shared <= _).map { gamma =>
        val settled = Pruning.walk(x, y, k, gamma, a, enumerate = false)
        val full    = Pruning.refine(x, y, k, gamma, a)
        Prop(sim <= gamma && settled == full.copy(bySignature = true)) :|
          s"shared $shared, γ $gamma, α $a, max sim $sim: $settled vs $full"
      }: _*)
    }

  property("testPair refines as refine does, settling exactly the pairs that share at most γ attributes") =
    Prop.forAll(pair, alpha, Gen.choose(0.0, d + 0.5)) { case ((x, y), a, g) =>
      val (sx, sy) = (sketch(x), sketch(y))
      val shared   = Pruning.sharedAttrs(sx, sy)
      (gammas :+ g).forall { gamma =>
        Pruning.testPair(sx, sx.hasAnyKeyword(k), sy, k, gamma, a) match {
          case r: Pruning.Refined =>
            r.bySignature == (shared <= gamma) && r.copy(bySignature = false) == Pruning.refine(x, y, k, gamma, a)
          case _ => true
        }
      }
    }

  property("the drawn pairs both settle and enumerate at γ = 1") = {
    val draws  = Gen.listOfN(200, pair).pureApply(Gen.Parameters.default, Seed(14L))
    val shared = draws.map { case (x, y) => Pruning.sharedAttrs(sketch(x), sketch(y)) }
    Prop(shared.exists(_ <= 1) && shared.exists(_ > 1)) :| s"shared counts ${shared.groupBy(identity).view.mapValues(_.size).toMap}"
  }
}
