package repro.impute

import java.util.concurrent.ConcurrentHashMap
import repro.core.{JaccardIndex, Text}

/** The static complete data repository R (§2.2) with the derived artifacts
  * imputation needs: tokenized rows and their token hashes, per-attribute
  * domains `dom(A_j)`, and a memoized neighbor lookup `cand(s[A_j])` = all
  * domain values whose Jaccard distance to a given value falls in a rule's
  * dependent interval, answered by exact range search over the domain's
  * token sets.
  *
  * The neighbor cache is concurrent because Spark local-mode tasks share the
  * JVM and call into it from executor threads.
  */
final class Repo(val rows: IndexedSeq[Vector[String]]) extends Serializable {
  require(rows.nonEmpty, "repository must be non-empty")
  val d: Int = rows.head.size

  /** Per row, per attribute token arrays (`Text.tokens`). */
  val tokenRows: IndexedSeq[Array[Array[String]]] = rows.map(_.iterator.map(Text.tokens).toArray)

  /** Per row, per attribute the tokens' hashes (`Text.hashes`), which a
    * record's probe tables look up (`Rule.satisfiedBy`).
    */
  val hashRows: IndexedSeq[Array[Array[Int]]] = tokenRows.map(_.map(Text.hashes))

  /** Distinct values per attribute, in first-appearance order. */
  val doms: Vector[Vector[String]] =
    (0 until d).map(j => rows.iterator.map(_(j)).distinct.toVector).toVector

  val domTokens: Vector[Array[Array[String]]] = doms.map(_.iterator.map(Text.tokens).toArray)

  /** Value → domain index per attribute (candidate frequencies are counted
    * in flat arrays over these indices — Eq. 4's multiset, no hashing).
    */
  val domIndex: Vector[Map[String, Int]] = doms.map(_.zipWithIndex.toMap)

  private val neighborCache = new ConcurrentHashMap[(Int, String, Double, Double), Array[Int]]()

  /** Per attribute: the range search over `domTokens`, built on the memo's
    * first miss (set-up and the naive baselines never build it). A `lazy
    * val` is safe for Spark executor threads sharing the broadcast `Repo`.
    */
  private lazy val domSearch: Vector[JaccardIndex] = domTokens.map(new JaccardIndex(_))

  /** `cand(value)` for attribute j under dependent interval [lo, hi], as
    * ascending domain indices: every domain value within that Jaccard
    * distance of `value` (§3). Memoized, and a miss asks the range search
    * of `domSearch` for the values to verify; both belong to the proposed
    * index/synopsis infrastructure, so the naive baselines use
    * [[candidatesUncached]]. `verified` receives the number of domain
    * values verified with `Text.jdist` (0 on a memo hit).
    */
  def candidates(j: Int, value: String, lo: Double, hi: Double,
                 verified: Long => Unit = _ => ()): Array[Int] = {
    val key = (j, value, lo, hi)
    val hit = neighborCache.get(key)
    if (hit != null) hit
    else {
      val vt  = domIndex(j).get(value).fold(Text.tokens(value))(domTokens(j)(_))
      val ids = domSearch(j).within(vt, hi)
      val res =
        if (ids == null) scan(j, vt, lo, hi, verified)
        else {
          verified(ids.length)
          val dtk = domTokens(j)
          ids.filter(i => inInterval(Text.jdist(vt, dtk(i)), lo, hi))
        }
      neighborCache.put(key, res)
      res
    }
  }

  /** The straightforward method's domain scan (§2.3): recompute every time. */
  def candidatesUncached(j: Int, value: String, lo: Double, hi: Double,
                         verified: Long => Unit = _ => ()): Array[Int] =
    scan(j, Text.tokens(value), lo, hi, verified)

  private def inInterval(dist: Double, lo: Double, hi: Double): Boolean =
    dist >= lo - 1e-12 && dist <= hi + 1e-12

  private def scan(j: Int, vt: Array[String], lo: Double, hi: Double, verified: Long => Unit): Array[Int] = {
    val dtk = domTokens(j)
    val b   = Array.newBuilder[Int]
    var i   = 0
    while (i < dtk.length) {
      if (inInterval(Text.jdist(vt, dtk(i)), lo, hi)) b += i
      i += 1
    }
    verified(dtk.length)
    b.result()
  }

  def size: Int = rows.size
}
