package repro.stream

import repro.SparkSpec
import repro.core._
import repro.data.ERSynth
import repro.eval._
import repro.spark.{RecordRow, SparkTER}

/** Structured Streaming front-end: feeding arrivals through MemoryStream +
  * foreachBatch must yield exactly the micro-batch pipeline's (and hence
  * the core engine's) result set.
  */
class StreamingTERSpec extends SparkSpec {

  private val cfg    = ExpConfig(ERSynth.Citations, w = 50, maxSteps = 80)
  private lazy val b = Harness.base(cfg.profile)

  private def args = (spark, b.profile.d,
    Harness.rules(cfg.profile, cfg.eta, UseCDD),
    Harness.repo(cfg.profile, cfg.eta),
    Harness.pivots(cfg.profile, cfg.eta),
    Params(ERSynth.defaultKeywords(b), cfg.gamma, cfg.alpha, cfg.w))

  test("streaming result equals the micro-batch pipeline and the core engine") {
    val (sa, sb) = ERSynth.mask(b, cfg.xi, cfg.m)
    val streams  = Seq(sa.take(cfg.maxSteps), sb.take(cfg.maxSteps))

    val eng = Harness.engineFor(TERiDS, cfg)
    eng.run(streams, cfg.maxSteps)

    val a  = args
    val st = new StreamingTER(a._1, a._2, a._3, a._4, a._5, a._6)
    try {
      // Feed in 4 uneven chunks of interleaved arrivals.
      val rows = (0 until cfg.maxSteps).flatMap(t => streams.map(s => RecordRow.of(s(t))))
      rows.grouped(45).foreach(ch => st.feed(ch))
      assert(st.allMatches == eng.allMatches)
      assert(st.allMatches.nonEmpty)
    } finally st.stop()
  }

  test("feeding nothing yields nothing; incremental feeds accumulate") {
    val (sa, sb) = ERSynth.mask(b, cfg.xi, cfg.m)
    val a  = args
    val st = new StreamingTER(a._1, a._2, a._3, a._4, a._5, a._6)
    try {
      st.feed(Seq.empty)
      assert(st.allMatches.isEmpty)
      val rows = (0 until 30).flatMap(t => Seq(RecordRow.of(sa(t)), RecordRow.of(sb(t))))
      st.feed(rows)
      val after30 = st.allMatches
      val more = (30 until 60).flatMap(t => Seq(RecordRow.of(sa(t)), RecordRow.of(sb(t))))
      st.feed(more)
      assert(after30.subsetOf(st.allMatches))
    } finally st.stop()
  }

  test("a timestamp split across feeds still sees the engine's windows") {
    // Identical topical tuples all match, so the result is exactly the set
    // of pairs the windows admit; w = 1 admits only same-timestamp pairs.
    val vals    = Vector(Some("topic0 a b"), Some("c d"), Some("e"), Some("1999"))
    val streams = Seq(0, 1).map(sid => Vector.tabulate(6)(t => Record(2L * t + sid, sid, t, vals)))
    val a       = args
    val params  = a._6.copy(keywords = Set("topic0"), w = 1)
    val eng     = new Engine(a._2, a._3, Some(a._4), a._5, params, TERiDS)
    eng.run(streams)
    val st = new StreamingTER(a._1, a._2, a._3, a._4, a._5, params)
    try {
      val rows = streams.head.indices.flatMap(t => streams.map(s => RecordRow.of(s(t))))
      rows.grouped(3).foreach(ch => st.feed(ch)) // every other feed ends mid-timestamp
      assert(st.allMatches == eng.allMatches)
      assert(eng.allMatches.size == 6)
    } finally st.stop()
  }
}
