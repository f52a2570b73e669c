package repro.index

import java.util.Locale
import scala.util.Random
import org.scalacheck.{Gen, Prop, Properties, Test}
import repro.cdd.{Constraint, DistRange, Rule, ValueEq}
import repro.core.{Pivots, Record, Text}

/** The CDD-index selects exactly the rules the linear filter keeps: for
  * every record and attribute j, `select(r, j)` holds, once each, the rules
  * with dependent j that are applicable to r and whose every constant has
  * r's tokens. The draws mix rules with 0, 1 and 2 constants, constants
  * that differ from the record's value only by case, token order or
  * punctuation, empty constants against values with no tokens ("--"),
  * constants on missing attributes, rules whose dependent is present, and
  * DistRange-only rules.
  */
object CDDIndexProps extends Properties("CDDIndex") {
  override def overrideParameters(p: Test.Parameters): Test.Parameters = p.withMinSuccessfulTests(300)

  private val D    = 4
  private val pool = Seq("foo", "bar", "baz", "q9")

  private val tokenSet: Gen[Set[String]] =
    Gen.frequency(1 -> Gen.const(Set.empty[String]), 4 -> Gen.someOf(pool).map(_.toSet))

  /** A value with tokens `ts` in any order and case, with any punctuation. */
  private def render(ts: Set[String]): Gen[String] =
    if (ts.isEmpty) Gen.oneOf("--", "", " , ")
    else for {
      seed <- Gen.long
      cases <- Gen.listOfN(ts.size, Gen.oneOf(0, 1, 2))
      seps  <- Gen.listOfN(ts.size - 1, Gen.oneOf(" ", ", ", "-", " / ", ";"))
      lead  <- Gen.oneOf("", "(", " ")
      tail  <- Gen.oneOf("", ".", ")!")
    } yield {
      val words = new Random(seed).shuffle(ts.toSeq.sorted).zip(cases).map {
        case (t, 0) => t
        case (t, 1) => t.toUpperCase(Locale.ROOT)
        case (t, _) => t.capitalize
      }
      lead + words.head + seps.zip(words.tail).map { case (s, w) => s + w }.mkString + tail
    }

  /** Per attribute: the token set of the record's value, `None` if missing. */
  private val recordTokens: Gen[Vector[Option[Set[String]]]] =
    Gen.listOfN(D, Gen.frequency(1 -> Gen.const(None), 2 -> tokenSet.map(Some(_)))).map(_.toVector)

  private def record(rid: Long, tokens: Vector[Option[Set[String]]]): Gen[Record] =
    Gen.sequence[Vector[Option[String]], Option[String]](
      tokens.map(_.fold(Gen.const(Option.empty[String]))(ts => render(ts).map(Some(_))))
    ).map(attrs => Record(rid, 0, 0, attrs))

  /** A constant on attribute x: mostly a rendering of the first record's
    * tokens there (when present), else any token set or the empty string.
    */
  private def constant(first: Vector[Option[Set[String]]], x: Int): Gen[Constraint] =
    Gen.frequency(
      3 -> first(x).fold(tokenSet)(Gen.const).flatMap(render),
      1 -> tokenSet.flatMap(render),
      1 -> Gen.const(""),
    ).map(ValueEq(_))

  private def rule(first: Vector[Option[Set[String]]]): Gen[Rule] = for {
    dep    <- Gen.choose(0, D - 1)
    seed   <- Gen.long
    nConst <- Gen.choose(0, 2)
    nDist  <- Gen.choose(0, D - 1 - nConst)
    attrs   = new Random(seed).shuffle((0 until D).filter(_ != dep).toList).take(nConst + nDist)
    consts <- Gen.sequence[List[Constraint], Constraint](attrs.take(nConst).map(constant(first, _)))
    his    <- Gen.listOfN(nDist, Gen.choose(0.0, 1.0))
  } yield Rule(dep, (attrs.take(nConst).zip(consts) ++ attrs.drop(nConst).zip(his.map(DistRange(0.0, _)))).toMap,
    0.0, 0.3)

  final case class Draw(rules: Seq[Rule], records: Seq[Record])

  val draw: Gen[Draw] = for {
    first  <- recordTokens
    others <- Gen.listOfN(3, recordTokens)
    n      <- Gen.choose(1, 30)
    rules  <- Gen.listOfN(n, rule(first))
    recs   <- Gen.sequence[List[Record], Record]((first :: others).zipWithIndex.map { case (t, i) => record(i, t) })
  } yield Draw(rules, recs)

  private def reference(rules: Seq[Rule], r: Record, j: Int): Seq[Rule] =
    rules.filter(rule => rule.dep == j && rule.applicableTo(r) && rule.det.forall {
      case (x, v: ValueEq) => Text.same(Text.tokens(r.attrs(x).get), v.tokens)
      case _               => true
    })

  property("select equals the applicable-rule filter, each rule once") = Prop.forAllNoShrink(draw) { dr =>
    val idx = new CDDIndex(dr.rules, Pivots(Vector.fill(D)(Vector(""))), D)
    val checks = for (r <- dr.records; j <- 0 until D) yield {
      val got  = idx.select(r, j).sortBy(_.toString)
      val want = reference(dr.rules, r, j).sortBy(_.toString)
      (got == want, got.exists(_.det.values.count(_.isInstanceOf[ValueEq]) == 2), s"rid ${r.rid} j $j: $got != $want")
    }
    Prop.classify(checks.exists(_._2), "two-constant rule selected") {
      Prop.all(checks.map { case (ok, _, msg) => Prop(ok) :| msg }: _*)
    }
  }
}
