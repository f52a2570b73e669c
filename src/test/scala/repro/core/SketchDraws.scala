package repro.core

import org.scalacheck.Gen
import repro.impute.Imputer

/** Random imputed tuple pairs over a small token pool, for the properties of
  * the refinement filters (`SignatureProps`, `OverlapProps`).
  */
object SketchDraws {

  val d      = 3
  val pivots = Pivots(Vector(Vector("t0 t1", "t2"), Vector("t0 t3"), Vector("t1 t4")))
  val k      = Set("t1", "aan")

  // "ac0" and "aan" share String.hashCode 96334, so they set the same bit
  // and the same union hash without being one token; the sentinels are the
  // tokens a value that no sample imputes falls back to.
  private val pool = Seq("t0", "t1", "t2", "t3", "ac0", "aan", Imputer.missSentinel(7, 0), Imputer.missSentinel(8, 0))

  /** An attribute value: tokens from the pool, or no token at all. */
  private val value: Gen[String] = Gen.frequency(
    1 -> Gen.oneOf("", "-- ,"),
    6 -> Gen.choose(1, 3).flatMap(Gen.listOfN(_, Gen.oneOf(pool))).map(_.mkString(" ")),
  )

  /** One to three distinct values, their probabilities summing to 1. Values
    * drawn from one pool of eight tokens repeat tokens across values.
    */
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

  val pair: Gen[(ImputedTuple, ImputedTuple)] = Gen.zip(tuple(0), tuple(1))

  val alpha: Gen[Double] = Gen.oneOf(Gen.const(0.0), Gen.const(0.5), Gen.const(1.0), Gen.choose(0.0, 1.0))

  /** γ at every integer a shared count can take, and their neighbours. */
  val gammas: Seq[Double] =
    (0 to d).map(_.toDouble).flatMap(g => Seq(g, math.nextUp(g), math.nextDown(g))).filter(_ >= 0)

  def sketch(t: ImputedTuple): TupleSketch = TupleSketch.of(t, pivots, k)

  def maxSim(x: ImputedTuple, y: ImputedTuple): Double =
    (for (a <- x.instances; b <- y.instances) yield a.sim(b)).max
}
