package repro.core

import scala.collection.mutable

/** Exact Jaccard range search over a fixed array of token sets (the
  * `Text.tokens` form): the prefix and size filters of All-Pairs (Bayardo
  * et al., WWW 2007) and PPJoin (Xiao et al., WWW 2008) over one inverted
  * token list.
  *
  * A set within Jaccard distance `hi` of a query `q` has similarity at least
  * `t = 1 − hi`, so it shares at least `⌈t·|q|⌉` of q's `|q|` tokens and
  * holds between `t·|q|` and `|q|/t` tokens. It therefore holds one of any
  * `|q| − ⌈t·|q|⌉ + 1` of q's tokens: [[within]] probes that many, rarest
  * first, and keeps the probed sets that pass the size filter. An empty `q`
  * is within `hi < 1` only of the empty sets (`J(∅,∅) = 1`).
  *
  * The result may hold false positives (callers verify each id) but never
  * misses a set within `hi`. The `DRIndex` searches repository samples with
  * it and `Repo` the domain values of one attribute.
  */
final class JaccardIndex(sets: Array[Array[String]]) extends Serializable {
  import JaccardIndex._

  /** Token → ascending ids of the sets holding it (its df is the length). */
  private val lists: Map[String, Array[Int]] = {
    val acc = mutable.HashMap.empty[String, mutable.ArrayBuilder.ofInt]
    sets.indices.foreach(i => sets(i).foreach(t => acc.getOrElseUpdate(t, new mutable.ArrayBuilder.ofInt) += i))
    acc.view.mapValues(_.result()).toMap
  }

  /** Ascending ids of the sets with no tokens. */
  val empties: Array[Int] = sets.indices.filter(sets(_).isEmpty).toArray

  /** Each set's token count, for the size filter. */
  private val sizes: Array[Int] = sets.map(_.length)

  /** Ascending ids of the sets holding token `t`. */
  def list(t: String): Array[Int] = lists.getOrElse(t, NoIds)

  /** Ascending ids of the sets that may lie within Jaccard distance `hi` of
    * `q`, or `null` when the bound filters nothing (`1 − hi − Margin ≤ 0`).
    */
  def within(q: Array[String], hi: Double): Array[Int] = {
    val t = 1.0 - hi - Margin
    if (t <= 0.0) null
    else if (q.isEmpty) empties
    else {
      val n      = q.length
      val prefix = n - math.ceil(t * n).toInt + 1
      val rarest = q.sortBy(list(_).length) // stable: ties keep token order
      val minS   = t * n
      val maxS   = n / t
      val hit    = new java.util.BitSet(sets.length)
      var p      = 0
      while (p < prefix) {
        val ids = list(rarest(p))
        var k   = 0
        while (k < ids.length) {
          val s = ids(k)
          if (sizes(s) >= minS && sizes(s) <= maxS) hit.set(s)
          k += 1
        }
        p += 1
      }
      hit.stream().toArray
    }
  }
}

object JaccardIndex {
  /** Lowers `t = 1 − hi` so that rounding in `Text.jdist` (and the 1e-12
    * slack its callers allow) can never put a set within `hi` outside the
    * prefix or size filter.
    */
  val Margin = 1e-9

  val NoIds: Array[Int] = Array.emptyIntArray
}
