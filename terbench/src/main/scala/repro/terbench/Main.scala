package repro.terbench

import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import repro.cdd.RuleMiner
import repro.core._
import repro.data.ERSynth
import repro.eval._
import repro.impute.Repo
import repro.pivot.PivotSelector
import repro.spark.{RecordRow, SparkTER}

/** Replays one seeded workload and prints every metric, then one JSON line.
  *
  * Untraced (`--trace 0`): set-up time, then closed-loop passes over a fixed
  * stream prefix with one caller per `Engine.step` or `processBatch`, timed
  * call by call, then the correctness gate and F-score.
  *
  * Traced (`--trace 1`): the layer counters of one untraced pass (sampled by
  * JFR), the traced replay of the same decisions, Spark listener totals, and
  * the determinism checks.
  */
object Main {

  def main(argv: Array[String]): Unit = {
    val opts = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val wl      = Workloads.byName(opt("workload"))
    val seconds = opt("seconds").toInt
    val trace   = opt("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
    }
    require(seconds > 0, "--seconds must be positive")
    val out = Paths.get(opt("out"))
    Files.createDirectories(out)
    val bench = new Bench(wl, opt("seed").toLong, seconds, trace, out)
    val (attempted, ok) = bench.run()
    bench.metrics.toSeq.foreach { case (k, v, u) => println(f"metric $k%-40s $v $u") }
    bench.failures.foreach(f => println(s"FAILED CHECK: $f"))
    println(f"run took ${Jvm.uptimeMillis / 1e3}%.1f s since the JVM started")
    println(resultJson(ok, attempted, if (ok) 0L else attempted, bench.metrics.toSeq))
  }

  /** The result line. Metric names and units are plain identifiers (no
    * characters that need escaping); values are finite doubles.
    */
  def resultJson(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[(String, Double, String)]): String = {
    val ms = metrics.map { case (k, v, u) => s""""$k": {"value": $v, "unit": "$u"}""" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

final class Bench(wl: Workload, seed: Long, seconds: Int, trace: Boolean, out: Path) {

  val metrics  = new MetricSet
  val failures = mutable.ArrayBuffer.empty[String]

  private def check(ok: Boolean, what: => String): Unit = if (!ok) failures += what
  private def note(s: String): Unit = println(s)

  // Set-up repetitions: the first is the cold build; warm builds still speed
  // up over the next several as the JIT compiles the miners, so set-up time
  // is the median of the last `SetupMeasured`.
  private val SetupReps     = 20
  private val SetupMeasured = 12

  private val profile  = wl.profile
  private val cfg      = wl.config(profile)
  private val base     = Harness.base(profile)
  private val keywords = ERSynth.defaultKeywords(base)
  private val params   = Params(keywords, cfg.gamma, cfg.alpha, cfg.w)
  private val d        = profile.d

  /** The arrivals of each timestamp of a pass: the seed picks which values
    * are missing.
    */
  private def streams(b: ERSynth.Base, s: Long): Vector[Seq[Record]] = {
    val (sa, sb) = ERSynth.mask(b, wl.xi, wl.m, s)
    require(sa.size >= wl.passSteps && sb.size >= wl.passSteps, "streams shorter than a pass")
    Vector.tabulate(wl.passSteps)(t => Seq(sa(t), sb(t)))
  }
  private val steps: Vector[Seq[Record]] = streams(base, seed)
  private def arrivalsIn(n: Int): Long = steps.iterator.take(n).map(_.size.toLong).sum

  private def rules: Vector[repro.cdd.Rule] = Harness.rules(profile, wl.eta, UseCDD)
  private def pivots: Pivots               = Harness.pivots(profile, wl.eta)
  private def freshRepo(): Repo             = new Repo(Harness.repo(profile, wl.eta).rows)

  /** Pairs whose both members arrived in the first n timestamps. */
  private def prefix(pairs: Set[(Long, Long)], n: Int): Set[(Long, Long)] =
    pairs.filter { case (a, b) => a / 2 < n && b / 2 < n }

  private lazy val truth: Set[(Long, Long)] = {
    val n = wl.passSteps
    ERSynth.groundTruth(base.copy(trueA = base.trueA.take(n), trueB = base.trueB.take(n)), keywords, cfg.gamma, wl.w)
  }

  def run(): (Long, Boolean) = {
    note(s"workload ${wl.name}: ${wl.why}")
    note(s"profile ${profile.name} streams ${profile.nA}/${profile.nB} |R|=${Harness.repo(profile, wl.eta).size} " +
      s"xi=${wl.xi} m=${wl.m} w=${wl.w} eta=${wl.eta} gamma=${cfg.gamma} alpha=${cfg.alpha} keywords=${keywords.toSeq.sorted.mkString(",")}")
    note(s"pass ${wl.passSteps} timestamps, ${wl.callsPerPass} calls; seed $seed; trace $trace")
    note(s"jvm ${Jvm.inputArguments.mkString(" ")}")
    val attempted =
      if (!wl.spark) { if (trace) traceEngine() else runEngine() }
      else {
        val (spark, startS) = Bench.startSpark()
        try { if (trace) traceSpark(spark, startS) else runSpark(spark) }
        finally spark.stop()
      }
    (attempted, failures.isEmpty)
  }

  // ---- set-up ------------------------------------------------------------

  private final case class SetupTimes(repoMs: Double, mineMs: Double, pivotMs: Double, buildMs: Double, rules: Int) {
    def seconds: Double = (repoMs + mineMs + pivotMs + buildMs) / 1e3
  }

  /** Repository rows to a system ready for its first arrival, built with
    * the calls `Harness` makes but without its memo tables, so that no
    * repetition stays reachable after set-up.
    */
  private def setupOnce(spark: Option[SparkSession]): SetupTimes = {
    System.gc()
    val t0   = System.nanoTime()
    val repo = ERSynth.repoAt(base, wl.eta)
    val t1   = System.nanoTime()
    val rs   = RuleMiner.mineCDDs(repo)
    val t2   = System.nanoTime()
    val piv  = PivotSelector.select(repo)
    val t3   = System.nanoTime()
    spark match {
      case Some(s) => Api.sparkTER(s, d, rs, repo, piv, base.topicVocab, params)
      case None    => Api.teridsEngine(d, rs, new Repo(repo.rows), piv, base.topicVocab, params)
    }
    val t4 = System.nanoTime()
    SetupTimes((t1 - t0) / 1e6, (t2 - t1) / 1e6, (t3 - t2) / 1e6, (t4 - t3) / 1e6, rs.size)
  }

  private def measureSetup(spark: Option[SparkSession]): Unit = {
    val (reps, nanos) = timed((0 until SetupReps).map(_ => setupOnce(spark)))
    val warm          = reps.takeRight(SetupMeasured)
    metrics.put("setup_s", Stats.median(warm.map(_.seconds)), "s")
    note(f"setup: cold ${reps.head.seconds}%.3f s, then ${reps.tail.map(r => f"${r.seconds}%.3f").mkString(" ")} s; " +
      f"median of the last $SetupMeasured (${nanos / 1e9}%.1f s for all $SetupReps)")
    if (trace) {
      metrics.put("impute.repo_build_ms", Stats.median(warm.map(_.repoMs)), "ms")
      metrics.put("cdd.mine_ms", Stats.median(warm.map(_.mineMs)), "ms")
      metrics.put("cdd.rules", reps.head.rules.toDouble, "count")
      metrics.put("pivot.select_ms", Stats.median(warm.map(_.pivotMs)), "ms")
      metrics.put("index.build_ms", Stats.median(warm.map(_.buildMs)), "ms")
      metrics.put("setup.cold_s", reps.head.seconds, "s")
      check(reps.forall(_.rules == reps.head.rules), "rule mining is not deterministic")
    }
    // The measured system itself (rules and pivots memoized under its name).
    Harness.engineFor(TERiDS, cfg)
  }

  // ---- passes ------------------------------------------------------------

  private def enginePass(method: Method, n: Int, lat: Latencies): Engine = {
    val eng = Harness.engineFor(method, cfg)
    var t   = 0
    while (t < n) {
      val a = System.nanoTime()
      eng.step(steps(t))
      val dt = System.nanoTime() - a
      if (lat != null) lat.add(dt, steps(t).size)
      t += 1
    }
    eng
  }

  private def sparkPass(spark: SparkSession, n: Int, lat: Latencies, afterBatch: SparkTER => Unit = _ => ()): SparkTER = {
    val ter = Api.sparkTER(spark, d, rules, freshRepo(), pivots, base.topicVocab, params)
    var t   = 0
    while (t < n) {
      val hi    = math.min(n, t + wl.batchTs)
      val batch = (t until hi).flatMap(ts => steps(ts).map(RecordRow.of))
      val a     = System.nanoTime()
      ter.processBatch(batch)
      val dt = System.nanoTime() - a
      if (lat != null) lat.add(dt, batch.size)
      afterBatch(ter)
      t = hi
    }
    ter
  }

  /** Whole passes until `seconds` is spent: after the workload's minimum,
    * another pass starts only when the last one's length still fits.
    * Returns each pass's result.
    */
  private def measuredPasses[T](runPass: Latencies => T): (Latencies, Vector[T]) = {
    val lat    = new Latencies(wl.callsPerPass)
    val res    = Vector.newBuilder[T]
    val budget = seconds * 1e9
    val t0     = System.nanoTime()
    val each   = Vector.newBuilder[Long]
    var last   = 0L
    var n      = 0
    while (n < wl.minPasses || (System.nanoTime() - t0) + last <= budget) {
      System.gc()
      val a  = System.nanoTime()
      val c0 = lat.totalNanos
      res += runPass(lat)
      last = System.nanoTime() - a
      each += lat.totalNanos - c0
      n += 1
    }
    note(f"measured $n pass(es) in ${(System.nanoTime() - t0) / 1e9}%.1f s; summed call time per pass " +
      each.result().map(p => f"${p / 1e6}%.0f").mkString(" ") + " ms")
    (lat, res.result())
  }

  private def timed[T](body: => T): (T, Long) = {
    val a = System.nanoTime()
    val r = body
    (r, System.nanoTime() - a)
  }

  private def f1(found: Set[(Long, Long)]): Double = repro.eval.Metrics.prf(found, truth).f

  // ---- engine workloads ----------------------------------------------------

  private def runEngine(): Long = {
    measureSetup(None)
    enginePass(TERiDS, wl.warmSteps, null)
    val (lat, passes) = measuredPasses { lat =>
      val e = enginePass(TERiDS, wl.passSteps, lat)
      (Replay.counters(e.stats), e.allMatches)
    }
    note(lat.report(metrics))
    val (counts, found) = passes.head
    check(passes.forall(_ == passes.head), "passes over the same prefix disagree")
    checkAgainstReference(found)
    metrics.put("f1", f1(found), "1")
    note(s"pairs found ${found.size}, true pairs ${truth.size}; counters ${counts.mkString(" ")}")
    lat.totalArrivals
  }

  /** The naive CDD+ER engine on a prefix must find the same pairs. */
  private def checkAgainstReference(found: Set[(Long, Long)]): Unit = {
    val (ref, nanos) = timed(enginePass(CddEr, wl.checkSteps, null).allMatches)
    val mine         = prefix(found, wl.checkSteps)
    note(f"reference CDD+ER over ${wl.checkSteps} timestamps (${nanos / 1e9}%.1f s): ${ref.size} pairs, TER-iDS ${mine.size}")
    check(mine == ref, s"TER-iDS pairs differ from CDD+ER over ${wl.checkSteps} timestamps " +
      s"(${(mine -- ref).size} extra, ${(ref -- mine).size} missing)")
  }

  private def traceEngine(): Long = {
    measureSetup(None)
    metrics.put("jvm.heap_retained_mb", Jvm.retainedHeapMb, "MiB")
    enginePass(TERiDS, wl.warmSteps, null)
    System.gc()
    val gc0 = Jvm.gcMillis
    val al0 = Jvm.allocatedBytes
    val ((eng, passNanos), jfr) =
      Jfr.record(out.resolve(s"${wl.name}.jfr"))(timed(enginePass(TERiDS, wl.passSteps, null)))
    val arrivals = arrivalsIn(wl.passSteps)
    metrics.put("jvm.gc_ms", (Jvm.gcMillis - gc0).toDouble, "ms")
    metrics.put("jvm.alloc_bytes_per_arrival", (Jvm.allocatedBytes - al0).toDouble / arrivals, "B")
    putCoreCounters(eng.stats)
    putJfr(jfr)
    metrics.put("f1", f1(eng.allMatches), "1")
    val untraced = arrivals / (passNanos / 1e9)
    putNoSpark(untraced)
    replayAndCompare()
    checkDeterminism()
    checkAgainstReference(eng.allMatches)
    arrivals
  }

  private def putCoreCounters(s: RunStats): Unit = {
    Replay.counters(s).filterNot(_._1 == "steps").foreach { case (k, v) => metrics.put(s"core.$k", v.toDouble, "count") }
    metrics.put("core.stats.cdd_select_ms", s.cddSelectNanos / 1e6, "ms")
    metrics.put("core.stats.impute_ms", s.imputeNanos / 1e6, "ms")
    metrics.put("core.stats.er_ms", s.erNanos / 1e6, "ms")
  }

  private def putJfr(shares: Map[String, Double]): Unit = {
    Jfr.Layers.foreach(l => metrics.put(s"bench.jfr_share.$l", shares(l), "1"))
    note(f"jfr: ${shares("samples")}%.0f samples with a repro frame")
  }

  private val SpanMetrics = Vector(
    "index.grid_traverse", "index.grid_insert", "index.grid_remove",
    "core.prune_keyword", "core.prune_sim_ub", "core.prune_prob_ub", "core.refine", "core.evict", "core.sketch",
    "index.cdd_select", "index.dr_finder", "impute.value_distribution", "impute.assemble_instances",
  )

  /** Replays the trace prefix twice untraced through `Engine` and once with
    * spans; all three must agree exactly before any span number is reported.
    */
  private def replayAndCompare(): Unit = {
    val n = wl.traceSteps
    val (e1, n1) = timed(enginePass(TERiDS, n, null))
    val (e2, n2) = timed(enginePass(TERiDS, n, null))
    check(e1.allMatches == e2.allMatches && Replay.counters(e1.stats) == Replay.counters(e2.stats),
      "two untraced runs of the trace prefix disagree")
    val tr     = new Tracer(1 << 20)
    val replay = new Replay(d, rules, freshRepo(), pivots, base.topicVocab, params, tr)
    System.gc()
    val (_, rn) = timed { var t = 0; while (t < n) { replay.step(steps(t)); t += 1 } }
    val want = Replay.counters(e1.stats)
    val got  = Replay.counters(replay.stats)
    check(replay.allMatches == e1.allMatches, s"traced replay pairs differ from Engine over $n timestamps")
    check(got == want, s"traced replay counters differ from Engine: replay ${got.mkString(" ")} engine ${want.mkString(" ")}")
    if (failures.nonEmpty) return // never report spans of a different plan

    val sum = tr.summary
    SpanMetrics.foreach { s =>
      val (calls, nanos) = sum.getOrElse(s, (0L, 0L))
      metrics.put(s"$s.calls", calls.toDouble, "count")
      metrics.put(s"$s.self_ms", nanos / 1e6, "ms")
    }
    val kwPrunes = replay.stats.prunedKeyword
    metrics.put("index.grid_cells_visited", replay.gridCellsVisited.toDouble, "count")
    metrics.put("index.grid_members_visited", replay.gridMembersVisited.toDouble, "count")
    metrics.put("core.keyword_cell_share", if (kwPrunes == 0) 0.0 else replay.cellKeywordPrunes.toDouble / kwPrunes, "1")
    val refines = sum.get("core.refine").map(_._1).getOrElse(0L)
    metrics.put("core.refine_yield", if (refines == 0) 0.0 else replay.stats.matchedPairs.toDouble / refines, "1")
    metrics.put("index.cdd_rules_returned", replay.cddRulesReturned.toDouble, "count")
    metrics.put("index.dr_active", if (replay.drActive) 1.0 else 0.0, "bool")
    metrics.put("index.dr_samples_returned", replay.drSamplesReturned.toDouble, "count")
    metrics.put("impute.instance_cap_binds", replay.instanceCapBinds.toDouble, "count")
    metrics.put("impute.dropped_mass",
      if (replay.imputedTuples == 0) 0.0 else replay.droppedMass / replay.imputedTuples, "1")
    metrics.put("impute.sentinel_fallbacks", replay.sentinelFallbacks.toDouble, "count")
    val byLayer = sum.toSeq.groupMapReduce { case (name, _) => Bench.layerOfSpan(name) }(_._2._2)(_ + _)
    val total   = byLayer.values.sum.toDouble
    Seq("core", "index", "impute").foreach(l =>
      metrics.put(s"bench.replay_share.$l", byLayer.getOrElse(l, 0L) / total, "1"))
    metrics.put("bench.trace_overhead_pct", (rn.toDouble / math.min(n1, n2) - 1) * 100, "%")
    note(f"trace prefix: untraced ${n1 / 1e6}%.0f ms and ${n2 / 1e6}%.0f ms, traced ${rn / 1e6}%.0f ms")
    val file = out.resolve(s"${wl.name}.trace.tsv.gz")
    tr.write(file)
    note(s"trace: ${tr.size} spans over $n timestamps written to $file")
  }

  /** Counts are a function of the streams, and the streams of the seed alone. */
  private def checkDeterminism(): Unit = {
    val again = ERSynth.generate(profile)
    check(again == base, "regenerating the profile gave different data")
    check(streams(again, seed) == steps, "the same seed gave different streams")
    check(streams(base, seed + 1) != steps, "a different seed did not change the streams")
  }

  // ---- spark workload ------------------------------------------------------

  private def runSpark(spark: SparkSession): Long = {
    measureSetup(Some(spark))
    sparkPass(spark, wl.warmSteps, null)
    val (lat, passes) = measuredPasses(lat => sparkPass(spark, wl.passSteps, lat).allMatches)
    note(lat.report(metrics))
    check(passes.forall(_ == passes.head), "Spark passes over the same prefix disagree")
    val eng  = enginePass(TERiDS, wl.checkSteps, null).allMatches
    val mine = prefix(passes.head, wl.checkSteps)
    check(mine == eng, s"Spark pairs differ from Engine over ${wl.checkSteps} timestamps " +
      s"(${(mine -- eng).size} extra, ${(eng -- mine).size} missing)")
    metrics.put("f1", f1(passes.head), "1")
    note(s"pairs found ${passes.head.size}, true pairs ${truth.size}")
    lat.calls.toLong
  }

  private def traceSpark(spark: SparkSession, sessionStartS: Double): Long = {
    measureSetup(Some(spark))
    metrics.put("jvm.heap_retained_mb", Jvm.retainedHeapMb, "MiB")
    sparkPass(spark, wl.warmSteps, null)
    val listener = new Bench.TaskTotals
    spark.sparkContext.addSparkListener(listener)
    System.gc()
    val lat       = new Latencies(wl.callsPerPass)
    var stateRows = 0L
    val gc0       = Jvm.gcMillis
    val al0       = Jvm.allocatedBytes
    val (ter, jfr) = Jfr.record(out.resolve(s"${wl.name}.jfr"))(
      sparkPass(spark, wl.passSteps, lat, t => stateRows += t.windowState.size))
    metrics.put("jvm.gc_ms", (Jvm.gcMillis - gc0).toDouble, "ms")
    metrics.put("jvm.alloc_bytes_per_arrival", (Jvm.allocatedBytes - al0).toDouble / lat.totalArrivals, "B")
    org.apache.spark.ListenerBusDrain(spark.sparkContext)
    spark.sparkContext.removeSparkListener(listener)
    putJfr(jfr)
    val batches = lat.calls.toDouble
    val wallMs  = lat.totalNanos / 1e6
    metrics.put("spark.session_start_s", sessionStartS, "s")
    metrics.put("spark.jobs_per_batch", listener.jobs / batches, "count")
    metrics.put("spark.tasks_per_batch", listener.tasks / batches, "count")
    metrics.put("spark.executor_run_ms", listener.runMs / batches, "ms")
    metrics.put("spark.executor_cpu_ms", listener.cpuNs / 1e6 / batches, "ms")
    metrics.put("spark.overhead_share", 1.0 - listener.runMs / wallMs, "1")
    metrics.put("spark.shuffle_bytes", listener.shuffleBytes / batches, "B")
    metrics.put("spark.result_bytes", listener.resultBytes / batches, "B")
    metrics.put("spark.state_rows", stateRows / batches, "count")
    val (eng, engNanos) = timed(enginePass(TERiDS, wl.passSteps, null))
    metrics.put("spark.engine_baseline_arrivals_per_s", arrivalsIn(wl.passSteps) / (engNanos / 1e9), "1/s")
    check(ter.allMatches == eng.allMatches, "Spark pairs differ from Engine")
    putCoreCounters(eng.stats)
    metrics.put("f1", f1(ter.allMatches), "1")
    replayAndCompare()
    checkDeterminism()
    lat.calls.toLong
  }

  /** Spark metrics of a workload that does not run Spark are zero, except
    * the engine baseline, which is the engine's own untraced throughput.
    */
  private def putNoSpark(engineArrivalsPerS: Double): Unit = {
    Seq("spark.session_start_s" -> "s", "spark.jobs_per_batch" -> "count", "spark.tasks_per_batch" -> "count",
      "spark.executor_run_ms" -> "ms", "spark.executor_cpu_ms" -> "ms", "spark.overhead_share" -> "1",
      "spark.shuffle_bytes" -> "B", "spark.result_bytes" -> "B", "spark.state_rows" -> "count")
      .foreach { case (k, u) => metrics.put(k, 0.0, u) }
    metrics.put("spark.engine_baseline_arrivals_per_s", engineArrivalsPerS, "1/s")
  }
}

object Bench {

  /** Layer of a span name; the root `arrival` and `core.match` spans hold
    * the engine's own bookkeeping, so they count as core.
    */
  def layerOfSpan(name: String): String = name.takeWhile(_ != '.') match {
    case "arrival" => "core"
    case l         => l
  }

  /** The Spark settings are `spark.*` system properties set by the
    * launcher, which records them with every result.
    */
  def startSpark(): (SparkSession, Double) = {
    require(sys.props.contains("spark.master"), "spark.master is not set; start the benchmark with run.py")
    val t0 = System.nanoTime()
    val s  = SparkSession.builder.getOrCreate()
    (s, (System.nanoTime() - t0) / 1e9)
  }

  /** Task totals of every job while registered. */
  final class TaskTotals extends SparkListener {
    @volatile var jobs, tasks, runMs, cpuNs, shuffleBytes, resultBytes = 0L
    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { jobs += 1 }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      tasks += 1
      val m = e.taskMetrics
      if (m != null) {
        runMs += m.executorRunTime
        cpuNs += m.executorCpuTime
        shuffleBytes += m.shuffleWriteMetrics.bytesWritten
        resultBytes += m.resultSize
      }
    }
  }
}
