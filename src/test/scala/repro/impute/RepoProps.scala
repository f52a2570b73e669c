package repro.impute

import org.scalacheck.{Gen, Prop, Properties, Test}

/** The neighbor search is exact: for any domain and query, the memoized
  * `candidates` (range search, then verification) returns the same domain
  * indices in the same order as the straightforward scan. The draws aim at
  * the filters' edges: `hi` at every fraction `1 − a/b` of small token
  * counts (where `t·|v|` or `|v|/t` is an integer, so the prefix or the
  * size filter cuts) and its neighbouring doubles, `lo > 0`, `hi ≥ 1`,
  * empty values in the domain and as the query, query tokens absent from
  * the domain, and tied token frequencies (a pool of 6 tokens).
  */
object RepoProps extends Properties("Repo") {
  override def overrideParameters(p: Test.Parameters): Test.Parameters = p.withMinSuccessfulTests(300)

  private val pool   = (0 until 6).map(i => s"t$i")
  private val unseen = Seq("u0", "u1") // never in the domain

  private def subset(from: Seq[String]): Gen[Seq[String]] = Gen.someOf(from).map(_.toSeq)

  /** A value with no tokens, or some tokens in any case and separator. */
  private def value(from: Seq[String]): Gen[String] = Gen.frequency(
    6 -> (for (ts <- subset(from); sep <- Gen.oneOf(" ", ", ", "-")) yield ts.mkString(sep)),
    1 -> Gen.oneOf("", "--"),
    1 -> subset(from).map(_.map(_.toUpperCase).reverse.mkString(" ")),
  )

  /** Every `1 − a/b` for token counts up to 7, each with its neighbouring
    * doubles, plus a random bound and bounds at or past 1.
    */
  private val edges: Seq[Double] = {
    val fr = for (b <- 1 to 7; a <- 0 to b) yield 1.0 - a.toDouble / b
    fr.distinct.flatMap(h => Seq(h, math.nextUp(h), math.nextDown(h))).filter(_ >= 0.0) ++ Seq(1.0, 1.25)
  }

  private val interval: Gen[(Double, Double)] = for {
    hi <- Gen.frequency(5 -> Gen.oneOf(edges), 1 -> Gen.choose(0.0, 1.0))
    lo <- Gen.frequency(3 -> Gen.const(0.0), 1 -> Gen.choose(0.0, hi), 1 -> Gen.oneOf(edges))
  } yield (lo, hi)

  final case class Draw(rows: Vector[Vector[String]], queries: Seq[(String, Double, Double)])

  val draw: Gen[Draw] = for {
    n       <- Gen.choose(1, 30)
    rows    <- Gen.listOfN(n, for (a <- value(pool); b <- value(pool.take(3))) yield Vector(a, b))
    foreign <- Gen.listOfN(4, value(pool ++ unseen))
    ivs     <- Gen.listOfN(24, interval)
    picks   <- Gen.listOfN(24, Gen.oneOf(rows.map(_(0)) ++ foreign ++ Seq("", "u0 u1")))
  } yield Draw(rows.toVector, picks.zip(ivs).map { case (v, (lo, hi)) => (v, lo, hi) })

  property("candidates equals the domain scan element for element") = Prop.forAllNoShrink(draw) { dr =>
    val repo = new Repo(dr.rows)
    val diff = for {
      (v, lo, hi) <- dr.queries
      j           <- 0 until repo.d
      got  = repo.candidates(j, v, lo, hi).toVector
      want = repo.candidatesUncached(j, v, lo, hi).toVector
      if got != want
    } yield (j, v, lo, hi, got, want)
    Prop(diff.isEmpty) :| s"differs on ${diff.take(3)} over ${dr.rows}"
  }
}
