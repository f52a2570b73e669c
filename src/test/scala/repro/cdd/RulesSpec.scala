package repro.cdd

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Record, Text}

class RulesSpec extends AnyFunSuite {

  private def tok(ss: String*): Array[Array[String]] = ss.map(Text.tokens).toArray

  /** `rule.satisfiedBy` for a record and a sample given as token arrays. */
  private def sat(rule: Rule, r: Array[Array[String]], s: Array[Array[String]]): Boolean =
    rule.satisfiedBy(r.map(new Text.Probe(_)), s, s.map(Text.hashes))

  test("DistRange rejects inverted intervals") {
    assertThrows[IllegalArgumentException](DistRange(0.5, 0.2))
    DistRange(0.0, 0.5) // ok
    DistRange(0.2, 0.5) // ε.min > 0 relaxation of §2.2 is allowed
  }

  test("Rule rejects dependent attribute among determinants") {
    assertThrows[IllegalArgumentException](Rule(0, Map(0 -> DistRange(0, 0.5)), 0, 0.3))
  }

  test("applicableTo: needs missing dependent and present determinants") {
    val rule = Rule(2, Map(0 -> DistRange(0, 0.5)), 0, 0.3)
    assert(rule.applicableTo(Record(1, 0, 0, Vector(Some("a"), Some("b"), None))))
    assert(!rule.applicableTo(Record(1, 0, 0, Vector(Some("a"), Some("b"), Some("c"))))) // dep present
    assert(!rule.applicableTo(Record(1, 0, 0, Vector(None, Some("b"), None))))           // det missing
  }

  test("satisfiedBy: DistRange bounds the pairwise Jaccard distance") {
    val rule = Rule(2, Map(0 -> DistRange(0.0, 0.4)), 0, 0.3)
    assert(sat(rule, tok("a b c", "x", "y"), tok("a b c d", "x", "y"))) // dist 0.25
    assert(!sat(rule, tok("a b", "x", "y"), tok("c d", "x", "y")))      // dist 1
  }

  test("satisfiedBy: DistRange with ε.min > 0 excludes too-close pairs") {
    val rule = Rule(2, Map(0 -> DistRange(0.2, 0.8)), 0, 0.3)
    assert(!sat(rule, tok("a b", "x", "y"), tok("a b", "x", "y"))) // dist 0 < 0.2
    assert(sat(rule, tok("a b", "x", "y"), tok("a c", "x", "y")))  // dist 2/3
  }

  test("satisfiedBy: ValueEq requires both sides to equal the constant") {
    val rule = Rule(2, Map(1 -> ValueEq("x y")), 0, 0.3)
    assert(sat(rule, tok("a", "x y", "p"), tok("b", "y x", "q"))) // token-set equality
    assert(!sat(rule, tok("a", "x y", "p"), tok("b", "x z", "q")))
    assert(!sat(rule, tok("a", "x", "p"), tok("b", "x", "q")))
  }

  test("satisfiedBy: conjunction over multiple determinants") {
    val rule = Rule(2, Map(0 -> DistRange(0, 0.5), 1 -> ValueEq("v")), 0, 0.3)
    assert(sat(rule, tok("a b", "v", "p"), tok("a b c", "v", "q")))
    assert(!sat(rule, tok("a b", "v", "p"), tok("z z", "v", "q")))
    assert(!sat(rule, tok("a b", "w", "p"), tok("a b", "v", "q")))
  }

  test("detAttrs lists the determinant set") {
    val rule = Rule(3, Map(0 -> DistRange(0, 0.5), 2 -> ValueEq("v")), 0, 0.3)
    assert(rule.detAttrs == Set(0, 2))
  }
}
