package repro.cdd

import org.scalacheck.{Gen, Prop, Properties}
import repro.core.{Text, TextRef}

/** `Rule.satisfiedBy` skips the Jaccard merge when the token counts alone
  * put the distance above the range; these properties check that the skip
  * never changes a decision.
  */
object RulesProps extends Properties("Rules") {

  private val pool = (0 until 10).map(i => s"t$i")

  private val tokenSet: Gen[Set[String]] = Gen.listOf(Gen.oneOf(pool)).map(_.toSet)

  /** Two token sets; half the time one contains the other, where the
    * distance equals its count bound `1 − min/max`.
    */
  private val pair: Gen[(Array[String], Array[String])] = for {
    a     <- tokenSet
    b     <- tokenSet
    nested <- Gen.oneOf(true, false)
  } yield (TextRef.arr(a), TextRef.arr(if (nested) a ++ b else b))

  /** The predicate without the count filter. */
  private def unfiltered(r: DistRange, a: Array[String], b: Array[String]): Boolean = {
    val dd = Text.jdist(a, b)
    dd >= r.lo - 1e-12 && dd <= r.hi + 1e-12
  }

  /** Values of `hi` where a decision can flip: the count bound, the bound
    * less the filter's margin and the distance, each with its neighbours.
    */
  private def edgeHis(a: Array[String], b: Array[String]): Seq[Double] = {
    val big   = math.max(a.length, b.length)
    val bound = if (big == 0) 0.0 else 1.0 - math.min(a.length, b.length).toDouble / big
    Seq(bound, bound - 1e-9, Text.jdist(a, b)).flatMap(x => Seq(x, math.nextUp(x), math.nextDown(x)))
      .filter(x => x >= 0 && x <= 1)
  }

  property("the count filter never changes satisfiedBy, also with hi at the count bound") =
    Prop.forAll(pair, Gen.choose(0.0, 1.0), Gen.choose(0.0, 1.0)) { case ((a, b), u, v) =>
      (edgeHis(a, b) :+ u).forall { hi =>
        val range = DistRange(math.min(v, hi), hi)
        val rule  = Rule(1, Map(0 -> range), 0, 0.5)
        rule.satisfiedBy(_ => a, _ => b) == unfiltered(range, a, b) &&
        rule.satisfiedBy(_ => b, _ => a) == unfiltered(range, b, a)
      }
    }
}
