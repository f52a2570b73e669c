package repro.impute

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Text

class RepoSpec extends AnyFunSuite {

  private val rows = Vector(
    Vector("a b", "p q", "x"),
    Vector("a b c", "p", "x"),
    Vector("d e", "p q", "y"),
    Vector("a b", "r", "z"),
  )
  private val repo = new Repo(rows)

  test("d and size reflect the input") {
    assert(repo.d == 3 && repo.size == 4)
  }

  test("doms hold distinct values per attribute in first-appearance order") {
    assert(repo.doms(0) == Vector("a b", "a b c", "d e"))
    assert(repo.doms(2) == Vector("x", "y", "z"))
  }

  test("domIndex inverts doms") {
    repo.doms.indices.foreach { j =>
      repo.doms(j).zipWithIndex.foreach { case (v, i) => assert(repo.domIndex(j)(v) == i) }
    }
  }

  test("tokenRows tokenize every cell") {
    assert(repo.tokenRows(1)(0).toSet == Set("a", "b", "c"))
  }

  test("candidates returns exactly the domain values in the distance interval") {
    // dist("a b", "a b") = 0; dist("a b", "a b c") = 1/3; dist("a b", "d e") = 1.
    val c = repo.candidates(0, "a b", 0.0, 0.5).toVector.map(repo.doms(0))
    assert(c == Vector("a b", "a b c"))
  }

  test("candidates respects a positive lower bound (ε.min relaxation)") {
    val c = repo.candidates(0, "a b", 0.2, 0.5).toVector.map(repo.doms(0))
    assert(c == Vector("a b c"))
  }

  test("cached and uncached candidate scans agree (randomized)") {
    val rnd = new scala.util.Random(5)
    (1 to 100).foreach { _ =>
      val j  = rnd.nextInt(repo.d)
      val v  = repo.doms(j)(rnd.nextInt(repo.doms(j).size))
      val lo = rnd.nextDouble() * 0.3
      val hi = lo + rnd.nextDouble() * 0.7 + 1e-6
      assert(repo.candidates(j, v, lo, hi).toVector == repo.candidatesUncached(j, v, lo, hi).toVector)
    }
  }

  test("candidates for a foreign value still scans the domain correctly") {
    val c = repo.candidatesUncached(2, "y", 0.0, 0.0).toVector.map(repo.doms(2))
    assert(c == Vector("y"))
  }

  test("empty repository is rejected") {
    assertThrows[IllegalArgumentException](new Repo(Vector.empty))
  }

  test("full-interval scan returns the whole domain") {
    assert(repo.candidatesUncached(1, "p q", 0.0, 1.0).length == repo.doms(1).size)
  }
}
