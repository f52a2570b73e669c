package repro.impute

import java.util.concurrent.ConcurrentHashMap
import repro.core.Text

/** The static complete data repository R (§2.2) with the derived artifacts
  * imputation needs: tokenized rows, per-attribute domains `dom(A_j)`, and a
  * memoized neighbor lookup `cand(s[A_j])` = all domain values whose Jaccard
  * distance to a given value falls in a rule's dependent interval.
  *
  * The neighbor cache is concurrent because Spark local-mode tasks share the
  * JVM and call into it from executor threads.
  */
final class Repo(val rows: IndexedSeq[Vector[String]]) extends Serializable {
  require(rows.nonEmpty, "repository must be non-empty")
  val d: Int = rows.head.size

  /** Per row, per attribute token arrays (`Text.tokens`). */
  val tokenRows: IndexedSeq[Array[Array[String]]] = rows.map(_.iterator.map(Text.tokens).toArray)

  /** Distinct values per attribute, in first-appearance order. */
  val doms: Vector[Vector[String]] =
    (0 until d).map(j => rows.iterator.map(_(j)).distinct.toVector).toVector

  val domTokens: Vector[Array[Array[String]]] = doms.map(_.iterator.map(Text.tokens).toArray)

  /** Value → domain index per attribute (candidate frequencies are counted
    * in flat arrays over these indices — Eq. 4's multiset, no hashing).
    */
  val domIndex: Vector[Map[String, Int]] = doms.map(_.zipWithIndex.toMap)

  private val neighborCache = new ConcurrentHashMap[(Int, String, Double, Double), Array[Int]]()

  /** `cand(value)` for attribute j under dependent interval [lo, hi], as
    * domain indices: every domain value within that Jaccard distance of
    * `value` (§3). Memoized — part of the proposed index/synopsis
    * infrastructure, so the naive baselines use [[candidatesUncached]].
    */
  def candidates(j: Int, value: String, lo: Double, hi: Double): Array[Int] = {
    val key = (j, value, lo, hi)
    val hit = neighborCache.get(key)
    if (hit != null) hit
    else {
      val res = candidatesUncached(j, value, lo, hi)
      neighborCache.put(key, res)
      res
    }
  }

  /** The straightforward method's domain scan (§2.3): recompute every time. */
  def candidatesUncached(j: Int, value: String, lo: Double, hi: Double): Array[Int] = {
    val vt  = Text.tokens(value)
    val dtk = domTokens(j)
    val b   = Array.newBuilder[Int]
    var i   = 0
    while (i < dtk.length) {
      val dd = Text.jdist(vt, dtk(i))
      if (dd >= lo - 1e-12 && dd <= hi + 1e-12) b += i
      i += 1
    }
    b.result()
  }

  def size: Int = rows.size
}
