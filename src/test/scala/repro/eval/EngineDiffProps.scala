package repro.eval

import org.scalacheck.{Gen, Prop, Properties, Test}
import repro.SparkSpec
import repro.core._
import repro.data.ERSynth
import repro.impute.Repo
import repro.spark.SparkTER

/** A random TER-iDS configuration over a short prefix of a generated data
  * set: three streams of unequal length, the third a masked copy of source
  * A under fresh rids.
  */
final case class Draw(profile: ERSynth.Profile, eta: Double, xi: Double, m: Int, alpha: Double, rho: Double,
                      w: Int, keywords: Set[String], lens: Vector[Int], maskSeed: Long, batchTs: Int) {

  def params: Params = Params(keywords, rho * profile.d, alpha, w)

  def streams: Seq[Vector[Record]] = {
    val b        = Harness.base(profile)
    val (sa, sb) = ERSynth.mask(b, xi, m, maskSeed)
    val (sc, _)  = ERSynth.mask(b, xi, m, maskSeed + 1)
    // Rids above every source rid keep the copy's tuples distinct entities.
    val fresh = 2L * (profile.nA + profile.nB)
    val copy  = sc.map(r => r.copy(rid = fresh + r.rid, sid = 2))
    Seq(sa, sb, copy).zip(lens).map { case (s, n) => s.take(n) }
  }

  /** A method's engine as `Harness.engineFor` builds it, with these params. */
  def engine(method: Method): Engine = {
    require(method.imputeKind == UseCDD, s"$method is not a CDD method")
    new Engine(profile.d, Harness.rules(profile, eta, UseCDD), Some(new Repo(Harness.repo(profile, eta).rows)),
      Harness.pivots(profile, eta), params, method)
  }

  def run(method: Method): Set[(Long, Long)] = {
    val eng = engine(method)
    eng.run(streams)
    eng.allMatches
  }
}

object Draw {
  val gen: Gen[Draw] = for {
    profile  <- Gen.oneOf(ERSynth.All)
    eta      <- Gen.oneOf(0.3, 0.5) // Songs at η = 0.5 crosses Engine.DrIndexMinRepo
    xi       <- Gen.frequency(1 -> Gen.const(0.0), 1 -> Gen.const(1.0), 3 -> Gen.choose(0.0, 1.0))
    m        <- Gen.choose(1, profile.d)
    alpha    <- Gen.choose(0.05, 0.95)
    rho      <- Gen.choose(0.2, 0.6)
    lens     <- Gen.listOfN(3, Gen.choose(20, 100)).map(_.toVector)
    w        <- Gen.frequency(1 -> Gen.const(1), 2 -> Gen.const(40), 2 -> Gen.const(lens.max + 1))
    keywords <- Gen.frequency(1 -> Set.empty[String], 2 -> Set("topic0"), 2 -> Set("TOPIC0"), 2 -> Set("w1t0"))
    seed     <- Gen.choose(0L, 1000L)
    batchTs  <- Gen.choose(1, 30)
  } yield Draw(profile, eta, xi, m, alpha, rho, w, keywords, lens, seed, batchTs)
}

/** Differential check of the engines on random configurations: every prune
  * is sound, so TER-iDS, Ij+GER and the naive CDD+ER return the same pairs
  * for any keyword set, window and stream lengths.
  */
object EngineDiffProps extends Properties("EngineDiff") {
  override def overrideParameters(p: Test.Parameters): Test.Parameters = p.withMinSuccessfulTests(100)

  property("TER-iDS = Ij+GER = CDD+ER on random configurations") = Prop.forAllNoShrink(Draw.gen) { d =>
    val naive = d.run(CddEr)
    val ter   = d.run(TERiDS)
    Prop.classify(naive.nonEmpty, "pairs found", "no pairs") {
      Prop(ter == naive && d.run(IjGer) == naive) :| s"TER-iDS ${ter.size} pairs, CDD+ER ${naive.size}"
    }
  }
}

/** The Spark pipeline on a couple of random configurations: its windows and
  * pair test are the engine's, so it returns the engine's pairs.
  */
object SparkDiffProps extends Properties("SparkDiff") {
  override def overrideParameters(p: Test.Parameters): Test.Parameters = p.withMinSuccessfulTests(2)

  property("SparkTER = Engine on random configurations") = Prop.forAllNoShrink(Draw.gen) { d =>
    val p   = d.profile
    val ter = new SparkTER(SparkSpec.shared, p.d, Harness.rules(p, d.eta, UseCDD), Harness.repo(p, d.eta),
      Harness.pivots(p, d.eta), Set.empty, d.params)
    val spark  = ter.runStreams(d.streams, d.batchTs)
    val engine = d.run(TERiDS)
    Prop(spark == engine) :| s"SparkTER ${spark.size} pairs, Engine ${engine.size}"
  }
}
