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
    // Two to twelve topic words make up to every topical tuple a keyword
    // tuple, so grid cells mix keyword and keyword-free members.
    keywords <- Gen.frequency(1 -> Gen.const(Set.empty[String]), 2 -> Gen.const(Set("topic0")),
                  2 -> Gen.const(Set("TOPIC0")), 2 -> Gen.const(Set("w1t0")),
                  2 -> Gen.choose(2, 12).map(n => (0 until n).map(i => s"topic$i").toSet))
    seed     <- Gen.choose(0L, 1000L)
    batchTs  <- Gen.choose(1, 30)
  } yield Draw(profile, eta, xi, m, alpha, rho, w, keywords, lens, seed, batchTs)

  /** Keyword-free tuples that span several ER-grid cells, next to topical
    * cells pruned on similarity: most tuples miss two or more values, so
    * their imputed boxes span cells; six to twelve topic words make about
    * half the tuples topical, so most cells hold a topical member; a high γ
    * prunes many of those cells on similarity. Where such a tuple's cells
    * differ in outcome, only counting it in its first cell gives the
    * member loop's counters.
    */
  val multiCell: Gen[Draw] = for {
    profile  <- Gen.oneOf(ERSynth.All)
    eta      <- Gen.oneOf(0.3, 0.5)
    xi       <- Gen.choose(0.7, 1.0)
    m        <- Gen.choose(2, profile.d)
    alpha    <- Gen.choose(0.05, 0.95)
    rho      <- Gen.choose(0.4, 0.7)
    lens     <- Gen.listOfN(3, Gen.choose(60, 100)).map(_.toVector)
    keywords <- Gen.choose(6, 12).map(n => (0 until n).map(i => s"topic$i").toSet)
    seed     <- Gen.choose(0L, 1000L)
  } yield Draw(profile, eta, xi, m, alpha, rho, lens.max + 1, keywords, lens, seed, 1)
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

/** The ER-grid's topic split on random configurations: TER-iDS and Ij+GER,
  * which book the keyword-free members of a cell by count, give the pairs
  * and pruning counters of the member-by-member loop over every cell. A
  * miscounted member shows only in draws where its cells differ in outcome,
  * so half the draws come from `Draw.multiCell`, and this property takes
  * more draws.
  */
object GridCounterProps extends Properties("GridCounters") {
  override def overrideParameters(p: Test.Parameters): Test.Parameters = p.withMinSuccessfulTests(400)

  private val draws = Gen.oneOf(Draw.gen, Draw.multiCell)

  property("TER-iDS and Ij+GER counters equal the member-by-member loop") = Prop.forAllNoShrink(draws) { d =>
    val p = d.profile
    Prop.all(Seq(TERiDS, IjGer).map { m =>
      val eng = d.engine(m)
      eng.run(d.streams)
      val ref = new MemberLoop(p.d, Harness.rules(p, d.eta, UseCDD), new Repo(Harness.repo(p, d.eta).rows),
        Harness.pivots(p, d.eta), d.params, m)
      ref.run(d.streams)
      val (got, want) = (MemberLoop.counters(eng.stats), MemberLoop.counters(ref.stats))
      Prop(got == want && eng.allMatches == ref.allMatches.toSet) :| s"$m counters $got, reference $want"
    }: _*)
  }
}

/** The Spark pipeline on random configurations: its tasks impute and
  * sketch, and its driver steps the engine's own window join, so it returns
  * the engine's pairs. `batchTs` from 1 to 30 against w ∈ {1, 40, longer
  * than the stream} makes pairs meet within one batch and across batches.
  */
object SparkDiffProps extends Properties("SparkDiff") {
  override def overrideParameters(p: Test.Parameters): Test.Parameters = p.withMinSuccessfulTests(10)

  property("SparkTER = Engine on random configurations") = Prop.forAllNoShrink(Draw.gen) { d =>
    val p   = d.profile
    val ter = new SparkTER(SparkSpec.shared, p.d, Harness.rules(p, d.eta, UseCDD), Harness.repo(p, d.eta),
      Harness.pivots(p, d.eta), Set.empty, d.params)
    val spark  = ter.runStreams(d.streams, d.batchTs)
    val engine = d.run(TERiDS)
    Prop(spark == engine) :| s"SparkTER ${spark.size} pairs, Engine ${engine.size}"
  }
}

/** The entity set ES on random configurations: after a run, `currentES` is
  * the pairs found whose two tuples are both among the last min(w, n_s)
  * records of their streams, computed from the streams alone, for
  * w ∈ {1, 40, longer than the stream} against three unequal streams.
  */
object EntitySetProps extends Properties("EntitySet") {
  override def overrideParameters(p: Test.Parameters): Test.Parameters = p.withMinSuccessfulTests(50)

  property("currentES = the pairs found whose tuples are both in the last w records") =
    Prop.forAllNoShrink(Draw.gen) { d =>
      val streams = d.streams
      val eng     = d.engine(TERiDS)
      eng.run(streams)
      val live = streams.flatMap(_.takeRight(d.w).map(_.rid)).toSet
      val want = eng.allMatches.filter { case (a, b) => live(a) && live(b) }
      Prop.classify(want.size < eng.allMatches.size, "pairs expired", "no pair expired") {
        Prop(eng.currentES == want) :| s"currentES ${eng.currentES.size} pairs, expected ${want.size}"
      }
    }
}
