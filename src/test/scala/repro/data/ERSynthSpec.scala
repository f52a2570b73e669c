package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Text, TextRef}

class ERSynthSpec extends AnyFunSuite {

  private lazy val base = ERSynth.generate(ERSynth.Citations)

  test("generation is deterministic in the profile seed") {
    val b2 = ERSynth.generate(ERSynth.Citations)
    assert(base.trueA == b2.trueA && base.trueB == b2.trueB && base.repoPool == b2.repoPool)
  }

  test("profiles carry d=4 textual attributes and distinct names") {
    assert(ERSynth.All.map(_.name).distinct.size == 5)
    ERSynth.All.foreach(p => assert(p.d == 4))
  }

  test("byName resolves case-insensitively and rejects unknowns") {
    assert(ERSynth.byName("citations") == ERSynth.Citations)
    assertThrows[IllegalArgumentException](ERSynth.byName("nope"))
  }

  test("source sizes match the profile") {
    assert(base.trueA.size == ERSynth.Citations.nA)
    assert(base.trueB.size == ERSynth.Citations.nB)
    assert(base.entityA.size == base.trueA.size)
  }

  test("rids are globally unique and interleaved (A even, B odd)") {
    val all = base.trueA.indices.map(base.ridA) ++ base.trueB.indices.map(base.ridB)
    assert(all.distinct.size == all.size)
    assert(base.trueA.indices.forall(i => base.ridA(i) % 2 == 0))
  }

  test("masking hits ~ξ of tuples with exactly m missing attributes") {
    val (sa, sb) = ERSynth.mask(base, xi = 0.3, m = 2)
    val masked   = (sa ++ sb).filter(!_.isComplete)
    val rate     = masked.size.toDouble / (sa.size + sb.size)
    assert(rate > 0.2 && rate < 0.4, s"rate=$rate")
    masked.foreach(r => assert(r.missing.size == 2))
  }

  test("ξ=0 masks nothing; complete attributes equal the truth") {
    val (sa, _) = ERSynth.mask(base, 0.0, 1)
    assert(sa.forall(_.isComplete))
    sa.zipWithIndex.foreach { case (r, i) => assert(r.attrs.map(_.get) == base.trueA(i)) }
  }

  test("masking is deterministic in its seed") {
    assert(ERSynth.mask(base, 0.3, 1) == ERSynth.mask(base, 0.3, 1))
    assert(ERSynth.mask(base, 0.3, 1, seed = 1) != ERSynth.mask(base, 0.3, 1, seed = 2))
  }

  test("repoAt slices η·(|A|+|B|) complete rows with same-entity pairs") {
    val p  = ERSynth.Citations
    val r3 = ERSynth.repoAt(base, 0.3)
    assert(r3.size == ((p.nA + p.nB) * 0.3).toInt)
    assert(ERSynth.repoAt(base, 0.1).size < r3.size)
    // Consecutive rows pair up same entities: many near-duplicate pairs.
    val nearDup = (0 until r3.size - 1 by 2).count { i =>
      TextRef.jaccardStr(r3.rows(i)(0), r3.rows(i + 1)(0)) > 0.5
    }
    assert(nearDup > r3.size / 4, s"nearDup=$nearDup")
  }

  test("topic keywords appear in roughly the configured fraction of tuples") {
    val kw   = ERSynth.defaultKeywords(base)
    val frac = base.trueA.count(_.exists(v => Text.tokens(v).exists(kw.contains))).toDouble / base.trueA.size
    assert(frac > 0.02 && frac < 0.3, s"topical fraction $frac")
  }

  test("ground truth pairs are normalized, topical, in-window, above gamma") {
    val kws   = ERSynth.defaultKeywords(base)
    val truth = ERSynth.groundTruth(base, kws, gamma = 2.0, w = 200)
    assert(truth.nonEmpty)
    truth.foreach { case (ra, rb) =>
      assert(ra < rb)
      val (ia, ib) = if (ra % 2 == 0) ((ra / 2).toInt, (rb / 2).toInt) else ((rb / 2).toInt, (ra / 2).toInt)
      assert(math.abs(ia - ib) < 200)
      val sim = (0 until 4).map(k => TextRef.jaccardStr(base.trueA(ia)(k), base.trueB(ib)(k))).sum
      assert(sim > 2.0)
      val topical = base.trueA(ia).exists(v => Text.tokens(v).exists(kws.contains)) ||
        base.trueB(ib).exists(v => Text.tokens(v).exists(kws.contains))
      assert(topical)
    }
  }

  test("ground truth compares keywords as tokens, in any case") {
    val upper = ERSynth.groundTruth(base, Set("TOPIC0"), gamma = 2.0, w = 200)
    assert(upper.nonEmpty && upper == ERSynth.groundTruth(base, Set("topic0"), gamma = 2.0, w = 200))
  }

  test("ground truth grows with the window and shrinks with gamma") {
    val kws = ERSynth.defaultKeywords(base)
    val t1  = ERSynth.groundTruth(base, kws, 2.0, 100)
    val t2  = ERSynth.groundTruth(base, kws, 2.0, 400)
    val t3  = ERSynth.groundTruth(base, kws, 2.8, 400)
    assert(t1.subsetOf(t2))
    assert(t3.subsetOf(t2))
  }

  test("EBooks profile has a large-token description attribute (Fig. 5 cost driver)") {
    val eb = ERSynth.generate(ERSynth.EBooks)
    val avgDesc = eb.trueA.map(v => Text.tokens(v(3)).size).sum.toDouble / eb.trueA.size
    assert(avgDesc > 15, s"avg description tokens $avgDesc")
  }
}
