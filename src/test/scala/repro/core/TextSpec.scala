package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class TextSpec extends AnyFunSuite {

  private def tok(s: String): Set[String] = Text.tokens(s).toSet

  /** Jaccard of the token arrays of two token sets. */
  private def jac(a: Set[String], b: Set[String]): Double = Text.jaccard(TextRef.arr(a), TextRef.arr(b))
  private def dist(a: Set[String], b: Set[String]): Double = Text.jdist(TextRef.arr(a), TextRef.arr(b))

  test("tokens: lowercases and splits on non-alphanumerics") {
    assert(tok("Hello, World! 42") == Set("hello", "world", "42"))
  }
  test("tokens: null and empty yield empty set") {
    assert(Text.tokens(null).isEmpty)
    assert(Text.tokens("").isEmpty)
    assert(Text.tokens(" ,;- ").isEmpty)
  }
  test("tokens: deduplicates repeated tokens") {
    assert(Text.tokens("a b a B A").toSeq.sorted == Seq("a", "b"))
  }
  test("tokens: keeps digit runs and mixed alnum") {
    assert(tok("w3t12 2021") == Set("w3t12", "2021"))
  }
  test("tokens: the default locale does not change tokenization") {
    val saved = java.util.Locale.getDefault
    java.util.Locale.setDefault(java.util.Locale.forLanguageTag("tr"))
    try {
      // Turkish lowercases "I" to a dotless "ı", which is not a token char.
      assert(tok("TOPIC0 TITLE") == Set("topic0", "title"))
    } finally java.util.Locale.setDefault(saved)
  }
  test("jaccard: identical sets is 1") {
    assert(jac(Set("a", "b"), Set("a", "b")) == 1.0)
  }
  test("jaccard: disjoint sets is 0") {
    assert(jac(Set("a"), Set("b")) == 0.0)
  }
  test("jaccard: both empty is 1 (keeps jdist a metric)") {
    assert(jac(Set.empty, Set.empty) == 1.0)
  }
  test("jaccard: one empty is 0") {
    assert(jac(Set.empty, Set("a")) == 0.0)
  }
  test("jaccard: half overlap") {
    assert(jac(Set("a", "b"), Set("b", "c")) == 1.0 / 3.0)
  }
  test("jaccard is symmetric (randomized)") {
    val rnd = new Random(1)
    (1 to 200).foreach { _ =>
      val a = Set.fill(rnd.nextInt(6))(s"t${rnd.nextInt(8)}")
      val b = Set.fill(rnd.nextInt(6))(s"t${rnd.nextInt(8)}")
      assert(jac(a, b) == jac(b, a))
    }
  }
  test("jaccard is within [0, 1] (randomized)") {
    val rnd = new Random(2)
    (1 to 200).foreach { _ =>
      val a = Set.fill(rnd.nextInt(8))(s"t${rnd.nextInt(10)}")
      val b = Set.fill(rnd.nextInt(8))(s"t${rnd.nextInt(10)}")
      val j = jac(a, b)
      assert(j >= 0.0 && j <= 1.0)
    }
  }
  test("jdist satisfies the triangle inequality (randomized)") {
    val rnd = new Random(3)
    (1 to 300).foreach { _ =>
      def mk() = Set.fill(1 + rnd.nextInt(6))(s"t${rnd.nextInt(8)}")
      val (a, b, c) = (mk(), mk(), mk())
      assert(dist(a, c) <= dist(a, b) + dist(b, c) + 1e-12)
    }
  }
  test("jdist of equal sets is 0") {
    assert(dist(Set("x", "y"), Set("x", "y")) == 0.0)
  }
  test("jaccard: tokens with equal hash codes are told apart") {
    assert("ac0".hashCode == "aan".hashCode)
    assert(jac(Set("ac0"), Set("aan")) == 0.0)
    assert(jac(Set("ac0", "aan"), Set("aan")) == 0.5)
    assert(Text.contains(Text.tokens("ac0 x"), "ac0") && !Text.contains(Text.tokens("ac0 x"), "aan"))
  }
  test("jaccardStr and jdistStr agree with set forms") {
    assert(TextRef.jaccardStr("a b c", "b c d") == TextRef.jaccard(Set("a", "b", "c"), Set("b", "c", "d")))
    assert(TextRef.jdistStr("a b", "a b") == 0.0)
  }
  test("canonical sorts and joins tokens") {
    assert(TextRef.canonical("B a c a") == "a b c")
  }
  test("canonical is idempotent through tokens") {
    val rnd = new Random(4)
    (1 to 100).foreach { _ =>
      val s = Seq.fill(rnd.nextInt(6))(s"t${rnd.nextInt(9)}").mkString(" ")
      assert(tok(TextRef.canonical(s)) == tok(s))
    }
  }
}
