package repro.terbench

import com.fasterxml.jackson.databind.ObjectMapper
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Params, Record, UseCDD}
import repro.data.ERSynth
import repro.eval.{ExpConfig, Harness, TERiDS}
import repro.impute.Repo

class StatsSpec extends AnyFunSuite {

  test("the tail percentile leaves at least ten samples beyond it") {
    assert(Stats.tailPercentile(40) == 0.75)   // 10 beyond p75
    assert(Stats.tailPercentile(39) == 0.5)
    assert(Stats.tailPercentile(99) == 0.75)
    assert(Stats.tailPercentile(100) == 0.9)   // 10 beyond p90
    assert(Stats.tailPercentile(999) == 0.9)
    assert(Stats.tailPercentile(1000) == 0.99)
    assert(Stats.tailPercentile(3000) == 0.99)
    assert(Stats.tailPercentile(10000) == 0.999)
    for (n <- 20 to 20000 by 7) assert(Stats.beyond(Stats.tailPercentile(n), n) >= Stats.MinBeyond)
  }

  test("nearest-rank percentiles and medians") {
    val xs = Array.tabulate(100)(i => (i + 1).toDouble)
    assert(Stats.percentile(xs, 0.5) == 50.0)
    assert(Stats.percentile(xs, 0.9) == 90.0)
    assert(Stats.percentile(xs, 0.99) == 99.0)
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 2.0, 3.0)) == 2.5)
    assert(Stats.label(0.99) == "p99" && Stats.label(0.999) == "p99.9" && Stats.label(0.75) == "p75")
  }
}

class TraceSpec extends AnyFunSuite {

  test("self time subtracts the union of nested children") {
    // root [0,100) with children [10,30) and [20,50) (overlapping) and a
    // grandchild [12,18) inside the first child.
    val starts = Array(0L, 10L, 12L, 20L)
    val ends   = Array(100L, 30L, 18L, 50L)
    val parent = Array(-1, 0, 1, 0)
    assert(Trace.selfTimes(starts, ends, parent).toSeq == Seq(60L, 14L, 6L, 30L))
  }

  test("children reaching past their parent only count inside it") {
    val self = Trace.selfTimes(Array(0L, 5L), Array(10L, 15L), Array(-1, 0))
    assert(self.toSeq == Seq(5L, 10L))
  }

  test("a tracer sums calls and self time per span name") {
    val tr = new Tracer(2)
    val a  = tr.nameId("a")
    val b  = tr.nameId("b")
    tr.traceId = 7
    tr.span(a) { tr.span(b)(()); tr.span(b)(()) }
    tr.span(b)(())
    val s = tr.summary
    assert(tr.size == 4)
    assert(s("a")._1 == 1 && s("b")._1 == 3)
    assert(s.values.forall(_._2 >= 0))
  }
}

class ResultJsonSpec extends AnyFunSuite {

  test("the result line is one JSON object with the four keys") {
    val line = Main.resultJson(correct = true, 12, 0,
      Seq(("latency_p50_ms", 1.2034, "ms"), ("setup_s", 0.8127, "s"), ("core.matched", 212.0, "count")))
    assert(!line.contains("\n"))
    val node = new ObjectMapper().readTree(line)
    assert(node.get("correct").asBoolean() && node.get("attempted").asLong() == 12 && node.get("failed").asLong() == 0)
    assert(node.size() == 4)
    val m = node.get("metrics")
    assert(m.get("latency_p50_ms").get("value").asDouble() == 1.2034)
    assert(m.get("setup_s").get("unit").asText() == "s")
    assert(m.get("core.matched").get("value").asDouble() == 212.0)
  }

  test("metric sets refuse non-finite values and names that need escaping") {
    val m = new MetricSet
    assertThrows[IllegalArgumentException](m.put("x", Double.NaN, "ms"))
    assertThrows[IllegalArgumentException](m.put("a\"b", 1.0, "ms"))
    assertThrows[IllegalArgumentException](m.put("ok", 1.0, "m s"))
  }

  test("JFR frames are charged to the innermost layer frame, skipping shared helpers") {
    assert(Jfr.layerOf(Seq("scala.Foo", "repro.core.Text$", "repro.impute.Repo", "repro.core.Engine")) == Some("impute"))
    assert(Jfr.layerOf(Seq("repro.cdd.Rule", "repro.impute.Imputer$", "repro.spark.SparkTER")) == Some("impute"))
    assert(Jfr.layerOf(Seq("repro.eval.Harness$", "repro.core.Engine")) == Some("core"))
    assert(Jfr.layerOf(Seq("org.apache.spark.Foo", "repro.terbench.Bench")) == None)
  }
}

/** The traced replay must make exactly Engine's decisions. */
class ReplaySpec extends AnyFunSuite {

  private def compare(cfg: ExpConfig, steps: Int): Replay = {
    val b        = Harness.base(cfg.profile)
    val (sa, sb) = ERSynth.mask(b, cfg.xi, cfg.m, cfg.profile.seed)
    val arrivals: Seq[Seq[Record]] = (0 until steps).map(t => Seq(sa(t), sb(t)))
    val eng = Harness.engineFor(TERiDS, cfg)
    arrivals.foreach(eng.step)
    val replay = new Replay(cfg.profile.d, Harness.rules(cfg.profile, cfg.eta, UseCDD),
      new Repo(Harness.repo(cfg.profile, cfg.eta).rows), Harness.pivots(cfg.profile, cfg.eta), b.topicVocab,
      Params(ERSynth.defaultKeywords(b), cfg.gamma, cfg.alpha, cfg.w), new Tracer())
    arrivals.foreach(replay.step)
    assert(replay.allMatches == eng.allMatches)
    assert(Replay.counters(replay.stats) == Replay.counters(eng.stats))
    // The engine the set-up repetitions build makes the same decisions too.
    val own = Api.teridsEngine(cfg.profile.d, Harness.rules(cfg.profile, cfg.eta, UseCDD),
      new Repo(Harness.repo(cfg.profile, cfg.eta).rows), Harness.pivots(cfg.profile, cfg.eta), b.topicVocab,
      Params(ERSynth.defaultKeywords(b), cfg.gamma, cfg.alpha, cfg.w))
    arrivals.foreach(own.step)
    assert(own.allMatches == eng.allMatches)
    assert(Replay.counters(own.stats) == Replay.counters(eng.stats))
    replay
  }

  test("replay equals Engine on the scan path") {
    val p = ERSynth.Citations.copy(name = "Citations-replayspec")
    val r = compare(ExpConfig(p, w = 60, xi = 0.3), steps = 150)
    assert(!r.drActive)
    assert(r.stats.pairsTotal > 0 && r.imputedTuples > 0)
  }

  test("replay equals Engine on the DR-index path") {
    val p = ERSynth.Songs.copy(name = "Songs-replayspec")
    val r = compare(ExpConfig(p, w = 40, xi = 0.5, m = 2, eta = 0.4), steps = 100)
    assert(r.drActive)
    assert(r.drSamplesReturned > 0)
  }
}
