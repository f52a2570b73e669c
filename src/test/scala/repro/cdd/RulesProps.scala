package repro.cdd

import org.scalacheck.{Gen, Prop, Properties}
import repro.core.{Text, TextRef}

/** `Rule.satisfiedBy` decides a `DistRange` by probing for the overlap that
  * `DistRange.need` puts within `hi`, stopping once the sample's misses rule
  * it out and skipping a sample with too few tokens; these properties check
  * that neither ever changes a decision of the plain `Text.jdist` test.
  */
object RulesProps extends Properties("Rules") {

  // "ac0" and "aan" share String.hashCode 96334, so the probe must compare
  // strings on a hash hit.
  private val pool = (0 until 10).map(i => s"t$i") ++ Seq("ac0", "aan")

  private val tokenSet: Gen[Set[String]] = Gen.listOf(Gen.oneOf(pool)).map(_.toSet)

  /** Two token sets; half the time one contains the other, where the
    * distance equals its count bound `1 − min/max`.
    */
  private val pair: Gen[(Array[String], Array[String])] = for {
    a     <- tokenSet
    b     <- tokenSet
    nested <- Gen.oneOf(true, false)
  } yield (TextRef.arr(a), TextRef.arr(if (nested) a ++ b else b))

  /** The predicate without the count filter or the probe. */
  private def unfiltered(r: DistRange, a: Array[String], b: Array[String]): Boolean = {
    val dd = Text.jdist(a, b)
    dd >= r.lo - 1e-12 && dd <= r.hi + 1e-12
  }

  private def around(xs: Seq[Double]): Seq[Double] =
    xs.flatMap(x => Seq(x, math.nextUp(x), math.nextDown(x))).filter(x => x >= 0 && x <= 1)

  /** Values of `hi` where a decision can flip: the count bound, the bound
    * less the old filter's margin, the distance, and the distance
    * `1 − i/(n − i)` of every overlap i the pair could have, with and
    * without the 1e-12 slack; each with its neighbours.
    */
  private def edgeHis(a: Array[String], b: Array[String]): Seq[Double] = {
    val big   = math.max(a.length, b.length)
    val bound = if (big == 0) 0.0 else 1.0 - math.min(a.length, b.length).toDouble / big
    val n     = a.length + b.length
    val steps = if (n == 0) Nil else (0 to math.min(a.length, b.length)).map(i => 1.0 - i.toDouble / (n - i))
    around(Seq(bound, bound - 1e-9, Text.jdist(a, b)) ++ steps ++ steps.map(_ - 1e-12))
  }

  /** Values of `lo` where a decision can flip under `hi`: 0, the drawn `v`,
    * and the distance with and without the slack, each with its neighbours.
    */
  private def edgeLos(a: Array[String], b: Array[String], v: Double, hi: Double): Seq[Double] = {
    val dd = Text.jdist(a, b)
    (0.0 +: around(Seq(v, dd, dd + 1e-12))).filter(_ <= hi)
  }

  private def sat(rule: Rule, r: Array[String], s: Array[String]): Boolean =
    rule.satisfiedBy(Array(new Text.Probe(r)), Array(s), Array(Text.hashes(s)))

  property("the count filter never changes satisfiedBy, also with hi at the count bound") =
    Prop.forAll(pair, Gen.choose(0.0, 1.0), Gen.choose(0.0, 1.0)) { case ((a, b), u, v) =>
      (edgeHis(a, b) :+ u).forall { hi =>
        edgeLos(a, b, v, hi).forall { lo =>
          val range = DistRange(lo, hi)
          val rule  = Rule(1, Map(0 -> range), 0, 0.5)
          sat(rule, a, b) == unfiltered(range, a, b) && sat(rule, b, a) == unfiltered(range, b, a)
        }
      }
    }

  /** `hi` at the distance `1 − i/(n − i)` of a drawn overlap, where `need`
    * steps, with and without the slack, and at a uniform draw.
    */
  private val needHis: Gen[Seq[Double]] = for {
    u <- Gen.choose(0.0, 1.0)
    n <- Gen.choose(1, 2 * DistRange.TableN)
    i <- Gen.choose(0, n - 1)
  } yield {
    val step = 1.0 - i.toDouble / (n - i)
    around(Seq(u, 0.0, 1.0, step, step - 1e-12))
  }

  property("the need table equals the binary search for every n and top") =
    Prop.forAll(needHis) { his =>
      his.forall { hi =>
        val range = DistRange(0.0, hi)
        (1 to 2 * DistRange.TableN).forall(n => (0 to n + 2).forall(top => range.need(n, top) == range.search(n, top)))
      }
    }
}
