package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.rng.Seed

/** The token signature of `TupleSketch` and the refinements
  * `Pruning.testPair` settles from it: a pair whose signatures share at most
  * γ attributes has no instance pair above γ, and the mass-only walk
  * (`Pruning.settle`) returns `Pruning.refine`'s result field for field.
  */
object SignatureProps extends Properties("Signature") {
  import SketchDraws._

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
      val (sx, sy) = (sketch(x), sketch(y))
      val shared   = Pruning.sharedAttrs(sx, sy)
      val sim      = maxSim(x, y)
      Prop.all((gammas :+ g).filter(shared <= _).map { gamma =>
        val settled = Pruning.settle(sx.probs, sy.probs, a)
        val full    = Pruning.refine(x, y, k, gamma, a)
        Prop(sim <= gamma && settled == full.copy(settled = true)) :|
          s"shared $shared, γ $gamma, α $a, max sim $sim: $settled vs $full"
      }: _*)
    }

  property("testPair refines as refine does, and settles every pair that shares at most γ attributes") =
    Prop.forAll(pair, alpha, Gen.choose(0.0, d + 0.5)) { case ((x, y), a, g) =>
      val (sx, sy) = (sketch(x), sketch(y))
      val shared   = Pruning.sharedAttrs(sx, sy)
      (gammas :+ g).forall { gamma =>
        Pruning.testPair(sx, sx.hasAnyKeyword(k), sy, k, gamma, a) match {
          case r: Pruning.Refined =>
            (shared > gamma || r.settled) && r.copy(settled = false) == Pruning.refine(x, y, k, gamma, a)
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
