package repro.spark

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import org.apache.spark.SparkException
import repro.SparkSpec
import repro.core._
import repro.data.ERSynth
import repro.eval._

/** The Spark pipeline must produce exactly the same entity set and ledger
  * as the single-node engine: its tasks run the engine's imputation, and its
  * driver runs the engine's window join.
  */
class SparkTERSpec extends SparkSpec {

  private val cfg   = ExpConfig(ERSynth.Citations, w = 80, maxSteps = 150)
  private lazy val b = Harness.base(cfg.profile)

  private def mkSparkTer(c: ExpConfig = cfg): SparkTER = {
    val params = Params(ERSynth.defaultKeywords(b), c.gamma, c.alpha, c.w)
    new SparkTER(spark, b.profile.d,
      Harness.rules(c.profile, c.eta, UseCDD),
      Harness.repo(c.profile, c.eta),
      Harness.pivots(c.profile, c.eta),
      b.topicVocab, params)
  }

  private lazy val streams = {
    val (sa, sb) = ERSynth.mask(b, cfg.xi, cfg.m)
    Seq(sa.take(cfg.maxSteps), sb.take(cfg.maxSteps))
  }

  private lazy val coreEngine = {
    val eng = Harness.engineFor(TERiDS, cfg)
    eng.run(streams, cfg.maxSteps)
    eng
  }
  private lazy val coreFound = coreEngine.allMatches

  test("micro-batch Spark pipeline equals the core engine (batch = 75 timestamps)") {
    val ter = mkSparkTer()
    assert(ter.runStreams(streams, batchTs = 75) == coreFound)
  }

  test("batch size does not change the result (stateful join is window-exact)") {
    val t1 = mkSparkTer()
    val r1 = t1.runStreams(streams, batchTs = 10)
    val t2 = mkSparkTer()
    val r2 = t2.runStreams(streams, batchTs = 37)
    assert(r1 == r2)
    assert(r1 == coreFound)
  }

  /** Every counter of `RunStats` but `droppedMass` and `neighborsChecked`,
    * which tasks that share the neighbor memo book differently.
    */
  private def counters(s: RunStats): Seq[Long] = Seq(s.steps, s.pairsTotal, s.prunedKeyword, s.prunedSimUB,
    s.prunedProbUB, s.prunedInstancePair, s.refinedFull, s.matchedPairs, s.instancePairsChecked, s.refineSettled,
    s.gridRecomputes, s.gridMembersVisited, s.imputeSamplesChecked, s.imputedTuples, s.imputedAttrs,
    s.sentinelFallbacks, s.instanceCapBinds)

  /** One batch per timestamp: every pair, across timestamps or within one,
    * meets in the driver's engine after its tasks have sketched both sides.
    */
  private lazy val perTimestamp = {
    val ter = mkSparkTer()
    assert(ter.runStreams(streams, batchTs = 1) == coreFound)
    ter
  }

  test("one batch per timestamp gives the engine's pairs and pair count") {
    assert(perTimestamp.allMatches == coreFound)
    assert(perTimestamp.stats.run.pairsTotal == coreEngine.stats.pairsTotal)
    assert(perTimestamp.stats.batches == cfg.maxSteps)
  }

  test("pairs and every RunStats counter equal the engine's at three batch sizes") {
    val e = coreEngine.stats
    assert(e.imputedAttrs > 0 && e.sentinelFallbacks > 0 && e.refineSettled > 0)
    Seq(1, 25, cfg.maxSteps + 1).foreach { batchTs =>
      val ter = if (batchTs == 1) perTimestamp else { val t = mkSparkTer(); t.runStreams(streams, batchTs); t }
      assert(ter.allMatches == coreFound, s"batchTs $batchTs")
      val s = ter.stats.run
      assert(counters(s) == counters(e), s"batchTs $batchTs")
      // Summed per task, so in another order than the engine's.
      assert(math.abs(s.droppedMass - e.droppedMass) <= 1e-9, s"batchTs $batchTs")
    }
  }

  test("one batch longer than the stream gives the engine's pairs and pair count") {
    val ter = mkSparkTer()
    assert(ter.runStreams(streams, batchTs = cfg.maxSteps + 1) == coreFound)
    assert(ter.stats.run.pairsTotal == coreEngine.stats.pairsTotal)
    assert(ter.stats.batches == 1)
  }

  test("a batch that breaks whole timestamps is rejected") {
    val rows = (0 until 4).flatMap(t => streams.map(s => RecordRow.of(s(t))))
    val ter  = mkSparkTer()
    assertThrows[IllegalArgumentException](ter.processBatch(rows.reverse))
    ter.processBatch(rows.take(3)) // timestamps 0, 0, 1
    assertThrows[IllegalArgumentException](ter.processBatch(rows.drop(3)))
  }

  test("two arrivals of one stream in one timestamp are rejected") {
    val rows = streams.map(s => RecordRow.of(s(0)))
    val ter  = mkSparkTer()
    assertThrows[IllegalArgumentException](ter.processBatch(rows :+ RecordRow.of(streams(0)(1)).copy(ts = 0)))
    ter.processBatch(rows) // the rejected batch consumed nothing, so timestamp 0 is still open
    assert(ter.stats.batches == 1)
  }

  test("a failed batch consumes nothing: the same timestamps can be fed again") {
    val ter  = mkSparkTer()
    def rows(lo: Int, hi: Int) = (lo until hi).flatMap(t => streams.map(s => RecordRow.of(s(t))))
    ter.processBatch(rows(0, 50))
    val broken = rows(50, 75).updated(7, rows(50, 75)(7).copy(attrs = null)) // its task throws
    intercept[SparkException](ter.processBatch(broken))
    assert(ter.stats.batches == 1)
    ter.processBatch(rows(50, 75))
    ter.processBatch(rows(75, cfg.maxSteps))
    assert(ter.allMatches == coreFound)
    assert(ter.stats.batches == 3)
    assert(ter.stats.run.pairsTotal == coreEngine.stats.pairsTotal)
  }

  test("an arrival without d attributes fails its job; the batch consumes nothing") {
    val ter   = mkSparkTer()
    val rows  = (0 until 25).flatMap(t => streams.map(s => RecordRow.of(s(t))))
    val short = rows.updated(7, rows(7).copy(attrs = rows(7).attrs.init))
    intercept[SparkException](ter.processBatch(short))
    assert(ter.stats.batches == 0 && ter.windowState.isEmpty)
    assert(ter.runStreams(streams, batchTs = 25) == coreFound)
  }

  test("the batch task is a named class, not a lambda") {
    val c = mkSparkTer().task.getClass
    assert(!c.isSynthetic)
    assert(!c.getName.contains("$anonfun$") && !c.getName.contains("$$Lambda"), c.getName)
  }

  private def javaBytes(o: AnyRef): Array[Byte] = {
    val bos = new ByteArrayOutputStream
    val out = new ObjectOutputStream(bos)
    out.writeObject(o)
    out.close()
    bos.toByteArray
  }

  private def assertSameSketch(q: TupleSketch, o: TupleSketch): Unit = {
    assert((q.rid, q.sid, q.ts, q.kw) == (o.rid, o.sid, o.ts, o.kw))
    assert(q.t.instances == o.t.instances)
    assert(q.sig.sameElements(o.sig))
    assert(q.bounds.sameElements(o.bounds) && q.probs.sameElements(o.probs))
    assert(q.unionHashes.length == o.unionHashes.length)
    q.unionHashes.zip(o.unionHashes).foreach { case (a, b) => assert(a.sameElements(b)) }
    assert(q.attrs.size == o.attrs.size)
    q.attrs.zip(o.attrs).foreach { case (a, b) =>
      assert((a.sizeMin, a.sizeMax) == (b.sizeMin, b.sizeMax))
      assert(a.distLo.sameElements(b.distLo) && a.distHi.sameElements(b.distHi) && a.distE.sameElements(b.distE))
    }
  }

  test("the plan holder decodes, once, to a plan that sketches as the driver's does") {
    val ter = mkSparkTer()
    ter.runStreams(streams.map(_.take(25)), batchTs = 25)
    val h = ter.planHolder
    assert(h.plan eq h.local) // the driver's JVM decodes nothing
    val copy = new ObjectInputStream(new ByteArrayInputStream(javaBytes(h))).readObject().asInstanceOf[SparkTER.PlanBytes]
    val got  = copy.plan
    assert(copy.local == null && (got ne h.plan) && (got eq copy.plan))
    val incomplete = streams.flatten.filterNot(_.isComplete).take(20)
    assert(incomplete.nonEmpty)
    incomplete.foreach(r => assertSameSketch(got.sketch(r, new RunStats), h.plan.sketch(r, new RunStats)))
  }

  test("window state never exceeds w per stream") {
    val ter = mkSparkTer()
    ter.runStreams(streams, batchTs = 50)
    val bySid = ter.windowState.groupBy(_.sid)
    bySid.values.foreach(s => assert(s.size <= cfg.w))
  }

  test("RecordRow round-trips missing attributes as nulls") {
    val r  = Record(7, 1, 3, Vector(Some("a"), None, Some("c"), None))
    val rr = RecordRow.of(r)
    assert(rr.attrs == Seq("a", null, "c", null))
    assert(rr.toRecord == r)
  }

  test("Spark equals the engine and CDD+ER on unequal-length streams") {
    val c        = cfg.copy(w = 40)
    val (sa, sb) = ERSynth.mask(b, c.xi, c.m)
    val uneven   = Seq(sa.take(400), sb.take(120))
    val eng      = Harness.engineFor(TERiDS, c)
    eng.run(uneven)
    val naive = Harness.engineFor(CddEr, c)
    naive.run(uneven)
    val ter = mkSparkTer(c)
    assert(ter.runStreams(uneven, batchTs = 25) == eng.allMatches)
    assert(eng.allMatches == naive.allMatches)
    assert(eng.allMatches.nonEmpty)
    // The shorter stream's window stops being cut once it ends.
    val bySid = ter.windowState.groupBy(_.sid)
    Seq(0, 1).foreach(sid => assert(bySid(sid).size == eng.windowSize(sid)))
  }

  test("Spark equals the engine with w = 1") {
    val c   = cfg.copy(w = 1)
    val eng = Harness.engineFor(TERiDS, c)
    eng.run(streams)
    assert(mkSparkTer(c).runStreams(streams, batchTs = 20) == eng.allMatches)
  }
}
