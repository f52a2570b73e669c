package repro.index

import org.scalacheck.{Gen, Prop, Properties, Test}
import repro.cdd.{Constraint, DistRange, Rule, ValueEq}
import repro.core.{Pivots, Record, Text}
import repro.impute.Repo

/** The DR-index is sound: for any record, repository and rule, the finder
  * returns every sample that satisfies the rule's determinants. The draws
  * aim at the filters' edges: samples that share most of the record's
  * tokens, `hi` at `1 − k/|r|` (where `t·|r|` is an integer) and its
  * neighbouring doubles, empty values on either side, record tokens absent
  * from R, tied token frequencies (a pool of 8 tokens), `lo > 0`, `hi ≥ 1`,
  * empty and unseen constants, and two-determinant rules.
  */
object DRIndexProps extends Properties("DRIndex") {
  override def overrideParameters(p: Test.Parameters): Test.Parameters = p.withMinSuccessfulTests(300)

  private val pool   = (0 until 8).map(i => s"t$i")
  private val unseen = Seq("u0", "u1") // never in R

  private def subset(from: Seq[String]): Gen[Set[String]] =
    if (from.isEmpty) Gen.const(Set.empty) else Gen.someOf(from).map(_.toSet)

  private def value(ts: Iterable[String]): String = ts.mkString(" ")

  /** A sample's value near the record's tokens `rt`, or anywhere. */
  private def sampleValue(rt: Set[String]): Gen[String] = {
    val shared = rt.toSeq.filterNot(unseen.contains)
    Gen.frequency(
      4 -> (for (keep <- subset(shared); extra <- Gen.oneOf(pool)) yield value(keep + extra)),
      2 -> subset(shared).map(value),
      2 -> subset(pool).map(value),
      1 -> Gen.const(""),
    )
  }

  final case class Draw(r: Record, rows: Vector[Vector[String]], rules: Seq[Rule])

  /** Distance bounds where a filter can cut: `1 − k/n` for every k, each
    * with its neighbouring doubles, a random one, and `hi ≥ 1`.
    */
  private def his(n: Int): Gen[Seq[Double]] = Gen.choose(0.0, 1.0).map { u =>
    val edges = (0 to n).map(k => if (n == 0) 0.0 else 1.0 - k.toDouble / n)
    (edges.flatMap(h => Seq(h, math.nextUp(h), math.nextDown(h))) ++ Seq(u, 1.0, 1.25)).filter(_ >= 0.0).distinct
  }

  private def constraints(rv: String, rows: Vector[Vector[String]], x: Int): Gen[Seq[Constraint]] = for {
    hs   <- his(Text.tokens(rv).length)
    los  <- Gen.listOfN(hs.size, Gen.frequency(2 -> Gen.const(0.0), 1 -> Gen.choose(0.0, 1.0)))
    some <- Gen.oneOf(rows.map(_(x)))
  } yield hs.zip(los).map { case (h, l) => DistRange(math.min(l, h), h) } ++
    Seq(ValueEq(rv), ValueEq(rv.split(' ').reverse.mkString(" ")), ValueEq(""), ValueEq("zz9"), ValueEq(some))

  val draw: Gen[Draw] = for {
    rt0  <- subset(pool ++ unseen)
    rt1  <- Gen.frequency(3 -> subset(pool ++ unseen), 1 -> Gen.const(Set.empty[String]))
    n    <- Gen.choose(1, 25)
    rows <- Gen.listOfN(n, for (a <- sampleValue(rt0); b <- sampleValue(rt1); c <- subset(pool)) yield Vector(a, b, value(c)))
    r     = Record(0, 0, 0, Vector(Some(value(rt0)), Some(value(rt1)), None))
    c0   <- constraints(r.attrs(0).get, rows.toVector, 0)
    c1   <- constraints(r.attrs(1).get, rows.toVector, 1)
    pairs <- Gen.listOfN(12, for (a <- Gen.oneOf(c0); b <- Gen.oneOf(c1)) yield Map(0 -> a, 1 -> b))
  } yield Draw(r, rows.toVector, (c0.map(c => Map(0 -> c)) ++ c1.map(c => Map(1 -> c)) ++ pairs).map(Rule(2, _, 0.0, 0.5)))

  property("finder candidates are a superset of the satisfying samples") = Prop.forAllNoShrink(draw) { dr =>
    val repo   = new Repo(dr.rows)
    val finder = new DRIndex(repo, Pivots(Vector.fill(3)(Vector(""))), Set.empty).finderFor(dr.r)
    val rp     = dr.r.probes
    val missed = dr.rules.flatMap { rule =>
      val cands = finder(rule, dr.r).toSet
      repo.rows.indices.filter(s => rule.satisfiedBy(rp, repo.tokenRows(s), repo.hashRows(s)) && !cands(s)).map(s => (rule, s))
    }
    Prop(missed.isEmpty) :| s"missed ${missed.take(3)} of ${dr.rows}"
  }
}
