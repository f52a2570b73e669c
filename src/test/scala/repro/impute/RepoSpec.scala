package repro.impute

import org.scalatest.funsuite.AnyFunSuite
import repro.core.UseCDD
import repro.data.ERSynth
import repro.eval.Harness

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
    // All tokens unseen: nothing is within distance < 1, everything within 1.
    assert(repo.candidates(0, "zz", 0.0, 0.5).isEmpty)
    assert(repo.candidates(0, "zz", 0.0, 1.0).toVector.map(repo.doms(0)) == repo.doms(0))
    // Some tokens unseen: dist("a b zz", "a b") = 1/3, to "a b c" = 1/2.
    assert(repo.candidates(0, "a b zz", 0.0, 0.5).toVector.map(repo.doms(0)) == Vector("a b", "a b c"))
    assert(repo.candidates(0, "A-b zz", 0.4, 0.5).toVector.map(repo.doms(0)) == Vector("a b c"))
    Seq("zz", "a b zz", "A-b zz").foreach { v =>
      Seq((0.0, 0.3), (0.0, 0.5), (0.4, 0.5), (0.0, 1.0)).foreach { case (lo, hi) =>
        assert(repo.candidates(0, v, lo, hi).toVector == repo.candidatesUncached(0, v, lo, hi).toVector, s"$v [$lo, $hi]")
      }
    }
  }

  test("the neighbor search verifies under a tenth of the domain scan, with equal arrays (Songs, η = 0.5)") {
    val songs = new Repo(Harness.repo(ERSynth.Songs, 0.5).rows)
    val intervals = Harness.rules(ERSynth.Songs, 0.5, UseCDD).filter(_.depHi > 1e-12)
      .map(r => (r.dep, r.depLo, r.depHi)).distinct
    assert(intervals.nonEmpty)
    var viaIndex = 0L
    var viaScan  = 0L
    val differ = for {
      (j, lo, hi) <- intervals
      v           <- songs.doms(j)
      got  = songs.candidates(j, v, lo, hi, viaIndex += _)
      want = songs.candidatesUncached(j, v, lo, hi, viaScan += _)
      if !(got sameElements want)
    } yield (j, v, lo, hi)
    assert(differ.isEmpty, s"${differ.size} differ, e.g. ${differ.take(3)}")
    assert(viaScan == intervals.map { case (j, _, _) => songs.doms(j).size.toLong * songs.doms(j).size }.sum)
    assert(viaIndex > 0 && viaIndex * 10 < viaScan, s"index verified $viaIndex, scan $viaScan")
  }

  test("empty repository is rejected") {
    assertThrows[IllegalArgumentException](new Repo(Vector.empty))
  }

  test("full-interval scan returns the whole domain") {
    assert(repo.candidatesUncached(1, "p q", 0.0, 1.0).length == repo.doms(1).size)
  }
}
