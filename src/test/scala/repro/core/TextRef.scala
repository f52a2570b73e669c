package repro.core

import java.util.Locale

/** Test-side forms of [[Text]]: the set tokenizer and set Jaccard that the
  * token arrays are checked against, and string helpers for tests and the
  * DuckDB oracle.
  */
object TextRef {

  /** Token set of an attribute value, built independently of `Text.tokens`. */
  def tokenSet(s: String): Set[String] =
    if (s == null || s.isEmpty) Set.empty
    else {
      val b   = Set.newBuilder[String]
      val sb  = new StringBuilder
      var i   = 0
      val low = s.toLowerCase(Locale.ROOT)
      while (i <= low.length) {
        val c = if (i < low.length) low.charAt(i) else ' '
        if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) sb.append(c)
        else if (sb.nonEmpty) { b += sb.result(); sb.clear() }
        i += 1
      }
      b.result()
    }

  /** Jaccard similarity of two token sets. */
  def jaccard(a: Set[String], b: Set[String]): Double =
    if (a.isEmpty && b.isEmpty) 1.0
    else {
      val inter = if (a.size <= b.size) a.count(b.contains) else b.count(a.contains)
      inter.toDouble / (a.size + b.size - inter)
    }

  /** The token array of a set of tokens. */
  def arr(tokens: Set[String]): Array[String] = Text.tokens(tokens.mkString(" "))

  def jaccardStr(a: String, b: String): Double = Text.jaccard(Text.tokens(a), Text.tokens(b))
  def jdistStr(a: String, b: String): Double   = Text.jdist(Text.tokens(a), Text.tokens(b))

  /** Canonical space-joined sorted-token rendering, used when handing data
    * to the DuckDB oracle so both sides tokenize identically.
    */
  def canonical(s: String): String = Text.tokens(s).sorted.mkString(" ")

  /** A raw attribute value's main-pivot distance coordinate. */
  def coord(p: Pivots, j: Int, value: String): Double = Text.jdist(Text.tokens(value), p.mainTokens(j))
}
