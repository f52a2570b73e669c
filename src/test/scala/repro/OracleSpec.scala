package repro

import org.apache.spark.sql.DataFrame
import repro.core._
import repro.data.ERSynth
import repro.eval._
import repro.spark.{RecordRow, SparkTER}

/** DuckDB result-equality checks: the complete-data TER join (keyword
  * predicate + summed Jaccard similarity over the sliding window) is
  * expressed in plain SQL and diffed against the Spark pipeline's output —
  * catching any wrong operator, not just "it ran".
  */
class OracleSpec extends SparkSpec {

  private val cfg  = ExpConfig(ERSynth.Citations, w = 60, maxSteps = 90, xi = 0.0)
  private lazy val b = Harness.base(cfg.profile)

  /** DuckDB Jaccard over canonical space-joined token strings. */
  private def jac(x: String, y: String): String =
    s"""(CASE WHEN $x = $y THEN 1.0 ELSE
       | len(list_intersect(string_split($x, ' '), string_split($y, ' ')))::DOUBLE /
       | (len(string_split($x, ' ')) + len(string_split($y, ' '))
       |  - len(list_intersect(string_split($x, ' '), string_split($y, ' ')))) END)""".stripMargin

  private def kwPred(t: String, kws: Set[String]): String =
    kws.toSeq.sorted.flatMap(k =>
      (0 until 4).map(j => s"(' ' || $t.a$j || ' ') LIKE '% $k %'")).mkString("(", " OR ", ")")

  private def sideDF(rows: Seq[Record]): DataFrame = {
    import spark.implicits._
    rows.map { r =>
      val v = r.attrs.map(a => TextRef.canonical(a.get))
      (r.rid, r.ts, v(0), v(1), v(2), v(3))
    }.toDF("rid", "ts", "a0", "a1", "a2", "a3")
  }

  test("complete-data TER join matches DuckDB (pairs and window semantics)") {
    val (sa, sb) = ERSynth.mask(b, cfg.xi, cfg.m)
    val streams  = Seq(sa.take(cfg.maxSteps), sb.take(cfg.maxSteps))
    val kws      = ERSynth.defaultKeywords(b)

    val ter = new SparkTER(spark, 4,
      Harness.rules(cfg.profile, cfg.eta, UseCDD),
      Harness.repo(cfg.profile, cfg.eta),
      Harness.pivots(cfg.profile, cfg.eta),
      b.topicVocab, Params(kws, cfg.gamma, cfg.alpha, cfg.w))
    val found = ter.runStreams(streams, batchTs = 45)

    import spark.implicits._
    val foundDf = found.toSeq.sorted.toDF("rid_lo", "rid_hi")

    val simExpr = (0 until 4).map(j => jac(s"a.a$j", s"b.a$j")).mkString(" + ")
    val sql =
      s"""SELECT least(a.rid::BIGINT, b.rid::BIGINT) AS rid_lo,
         |       greatest(a.rid::BIGINT, b.rid::BIGINT) AS rid_hi
         |FROM ta a, tb b
         |WHERE abs(a.ts::BIGINT - b.ts::BIGINT) < ${cfg.w}
         |  AND (${kwPred("a", kws)} OR ${kwPred("b", kws)})
         |  AND ($simExpr) > ${cfg.gamma}
         |""".stripMargin
    Oracle.assertEquivalent(foundDf, sql,
      "ta" -> sideDF(streams(0)), "tb" -> sideDF(streams(1)))
  }

  test("sliding-window pair counts match DuckDB") {
    val (sa, sb) = ERSynth.mask(b, 0.0, 1)
    val streams  = Seq(sa.take(80), sb.take(80))
    import spark.implicits._
    // Count candidate (in-window, cross-stream) pairs per source-A tuple.
    val df = streams(0).map { ra =>
      val n = streams(1).count(rb => math.abs(ra.ts - rb.ts) < 25)
      (ra.rid, n.toLong)
    }.toDF("rid", "n")
    val sql =
      """SELECT a.rid AS rid, count(*) AS n
        |FROM ta a JOIN tb b ON abs(a.ts::BIGINT - b.ts::BIGINT) < 25
        |GROUP BY a.rid""".stripMargin
    Oracle.assertEquivalent(df, sql, "ta" -> sideDF(streams(0)), "tb" -> sideDF(streams(1)))
  }

  test("Scala Jaccard equals DuckDB Jaccard on random token strings") {
    val rnd = new scala.util.Random(41)
    val vals = (1 to 60).map { i =>
      (i.toLong, TextRef.canonical(Seq.fill(1 + rnd.nextInt(6))(s"t${rnd.nextInt(8)}").mkString(" ")))
    }
    import spark.implicits._
    val pairs = for ((i1, v1) <- vals; (i2, v2) <- vals if i1 < i2)
      yield (i1, i2, BigDecimal(TextRef.jaccardStr(v1, v2)).setScale(6, BigDecimal.RoundingMode.HALF_UP).toDouble)
    val df  = pairs.toDF("i", "j", "jac")
    val sql =
      s"""SELECT x.i::BIGINT AS i, y.i::BIGINT AS j, round(${jac("x.v", "y.v")}, 6) AS jac
         |FROM tv x JOIN tv y ON x.i::BIGINT < y.i::BIGINT""".stripMargin
    Oracle.assertEquivalent(df, sql, "tv" -> vals.toDF("i", "v"))
  }
}
