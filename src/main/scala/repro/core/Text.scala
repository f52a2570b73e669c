package repro.core

import java.util.{Arrays, Comparator, Locale}

/** Tokenization and Jaccard similarity/distance over token sets (Eq. 1).
  *
  * Attributes are textual; a token is a maximal run of lowercase
  * alphanumerics (lowercased in `Locale.ROOT`, so every host tokenizes
  * alike). A value's token set is an array of its distinct tokens sorted by
  * `(String.hashCode, string)`: Jaccard is then a merge intersection, and
  * the order needs no shared dictionary, so it survives serialization
  * between JVMs. `J(∅, ∅) = 1` (two empty attribute values are identical),
  * which keeps `dist` a proper metric on the token-set space so the
  * triangle-inequality pruning (Lemmas 4.2/4.3) stays sound.
  */
object Text {

  val Empty: Array[String] = Array.empty[String]

  /** The token order: hash first, the string breaks hash ties. */
  private def compare(x: String, y: String): Int = {
    val hx = x.hashCode
    val hy = y.hashCode
    if (hx != hy) Integer.compare(hx, hy) else x.compareTo(y)
  }

  private val order: Comparator[String] = (x: String, y: String) => compare(x, y)

  /** Distinct tokens of an attribute value in token order; `null`/empty → empty. */
  def tokens(s: String): Array[String] =
    if (s == null || s.isEmpty) Empty
    else {
      val low = s.toLowerCase(Locale.ROOT)
      val buf = new Array[String](low.length / 2 + 1)
      var n   = 0
      var i   = 0
      var st  = -1
      while (i <= low.length) {
        val c = if (i < low.length) low.charAt(i) else ' '
        if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) { if (st < 0) st = i }
        else if (st >= 0) { buf(n) = low.substring(st, i); n += 1; st = -1 }
        i += 1
      }
      Arrays.sort(buf, 0, n, order)
      var m = 0
      i = 0
      while (i < n) {
        if (m == 0 || buf(i) != buf(m - 1)) { buf(m) = buf(i); m += 1 }
        i += 1
      }
      if (m == 0) Empty else Arrays.copyOf(buf, m)
    }

  /** Does the token array contain `t`? Binary search in token order. */
  def contains(a: Array[String], t: String): Boolean = {
    var lo = 0
    var hi = a.length - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val c   = compare(a(mid), t)
      if (c < 0) lo = mid + 1 else if (c > 0) hi = mid - 1 else return true
    }
    false
  }

  /** Do two token arrays hold the same tokens? The order is canonical. */
  def same(a: Array[String], b: Array[String]): Boolean =
    Arrays.equals(a.asInstanceOf[Array[AnyRef]], b.asInstanceOf[Array[AnyRef]])

  /** Jaccard similarity of two token arrays (merge intersection). */
  def jaccard(a: Array[String], b: Array[String]): Double =
    if (a.length == 0 && b.length == 0) 1.0
    else {
      var inter = 0
      var i     = 0
      var j     = 0
      while (i < a.length && j < b.length) {
        val c = compare(a(i), b(j))
        if (c < 0) i += 1
        else if (c > 0) j += 1
        else { inter += 1; i += 1; j += 1 }
      }
      inter.toDouble / (a.length + b.length - inter)
    }

  /** Jaccard distance (1 - similarity); a metric on token sets. */
  def jdist(a: Array[String], b: Array[String]): Double = 1.0 - jaccard(a, b)

  /** The distinct tokens of two token arrays, in token order (a merge). */
  def union(a: Array[String], b: Array[String]): Array[String] =
    if (a.length == 0) b
    else if (b.length == 0) a
    else {
      val u = new Array[String](a.length + b.length)
      var n = 0
      var i = 0
      var j = 0
      while (i < a.length || j < b.length) {
        val c = if (i == a.length) 1 else if (j == b.length) -1 else compare(a(i), b(j))
        if (c <= 0) { u(n) = a(i); i += 1; if (c == 0) j += 1 }
        else { u(n) = b(j); j += 1 }
        n += 1
      }
      if (n == u.length) u else Arrays.copyOf(u, n)
    }

  /** The `String.hashCode` of each token, in the array's order. */
  def hashes(a: Array[String]): Array[Int] = {
    val h = new Array[Int](a.length)
    var i = 0
    while (i < a.length) { h(i) = a(i).hashCode; i += 1 }
    h
  }

  /** Exact intersection of one fixed query token array with many
    * candidates, the verification step of PPJoin (Xiao et al., WWW 2008).
    * The query's hashes sit in an open-addressing table, at most half full;
    * a candidate token is looked up by its precomputed hash, and its String
    * is compared only when the hashes are equal. Tokens are distinct within
    * an array, so the count of found candidate tokens is `|q ∩ c|`, the
    * count of [[jaccard]]'s merge, hash collisions (`"ac0"`/`"aan"`)
    * included.
    */
  final class Probe(val tokens: Array[String]) {
    private val bits  = 32 - Integer.numberOfLeadingZeros(math.max(2, 2 * tokens.length) - 1)
    private val slots = new Array[Int](1 << bits) // 1 + index into `tokens`; 0 = empty
    private val keys  = new Array[Int](1 << bits) // the hash of the token in each slot
    private val mask  = slots.length - 1

    private def home(h: Int): Int = (h * 0x9E3779B9) >>> (32 - bits) // Fibonacci hashing

    locally {
      var i = 0
      while (i < tokens.length) {
        val h = tokens(i).hashCode
        var s = home(h)
        while (slots(s) != 0) s = (s + 1) & mask
        slots(s) = i + 1
        keys(s) = h
        i += 1
      }
    }

    def size: Int = tokens.length

    private def holds(t: String, h: Int): Boolean = {
      var s = home(h)
      while (slots(s) != 0) {
        if (keys(s) == h && tokens(slots(s) - 1) == t) return true
        s = (s + 1) & mask
      }
      false
    }

    /** `|q ∩ c|` when it is at least `need`; otherwise some count below
      * `need`, returned as soon as the misses leave fewer than `need` of
      * c's tokens to find. `ch` is `hashes(c)`.
      */
    def overlap(c: Array[String], ch: Array[Int], need: Int): Int = {
      val misses = c.length - need // the misses c can afford
      if (misses < 0 || need > tokens.length) return 0
      var inter = 0
      var i     = 0
      while (i < c.length) {
        if (holds(c(i), ch(i))) inter += 1
        else if (i + 1 - inter > misses) return inter
        i += 1
      }
      inter
    }

    /** [[jaccard]]`(q, c)`, bit for bit. */
    def jaccard(c: Array[String], ch: Array[Int]): Double =
      if (tokens.length == 0 && c.length == 0) 1.0
      else {
        val inter = overlap(c, ch, 0)
        inter.toDouble / (tokens.length + c.length - inter)
      }
  }
}
