package repro.pivot

import scala.collection.mutable
import scala.util.Random
import repro.core.{Pivots, Text}
import repro.impute.Repo

/** Cost-model-based pivot tuple selection (§5.4, App. B).
  *
  * For each attribute, candidate pivot values are drawn from the attribute's
  * domain in R; the Shannon entropy (Eq. 5) of the converted-distance
  * histogram over P equal buckets measures converting quality. The value
  * with maximal entropy becomes the main pivot; if its entropy is below
  * `eMin`, auxiliary pivots are greedily added (maximizing the joint
  * bucket-vector entropy) up to `cntMax`, mirroring App. B.
  */
object PivotSelector {

  private[pivot] val Buckets = 10  // P
  private val CandLimit       = 40  // candidate pivot values examined per attribute
  private val SampleVals      = 300 // repository values used to score a candidate
  private val Seed            = 7L

  /** Shannon entropy of the distance histogram of one pivot (Eq. 5). */
  def entropy(pivTokens: Array[String], values: IndexedSeq[Array[String]], buckets: Int): Double = {
    val counts = new Array[Int](buckets)
    values.foreach { v =>
      val d = Text.jdist(v, pivTokens)
      val b = math.min(buckets - 1, (d * buckets).toInt)
      counts(b) += 1
    }
    histEntropy(counts.iterator.filter(_ > 0), values.size)
  }

  /** Joint entropy of the bucket-vector histogram of several pivots. */
  def jointEntropy(pivs: Seq[Array[String]], values: IndexedSeq[Array[String]], buckets: Int): Double = {
    val counts = mutable.HashMap.empty[Seq[Int], Int]
    values.foreach { v =>
      val key = pivs.map(p => math.min(buckets - 1, (Text.jdist(v, p) * buckets).toInt))
      counts.update(key, counts.getOrElse(key, 0) + 1)
    }
    histEntropy(counts.valuesIterator, values.size)
  }

  private def histEntropy(counts: Iterator[Int], n: Int): Double = {
    var h = 0.0
    counts.foreach { c =>
      val p = c.toDouble / n
      h -= p * math.log(p)
    }
    h
  }

  /** Select up to cntMax pivot values for one attribute (main pivot first). */
  def selectForAttr(repo: Repo, j: Int, cntMax: Int, eMin: Double): Vector[String] = {
    val rnd    = new Random(Seed + j)
    val dom    = repo.doms(j)
    val domTok = repo.domTokens(j)
    val sample: IndexedSeq[Array[String]] =
      if (domTok.length <= SampleVals) domTok.toIndexedSeq
      else rnd.shuffle(domTok.indices.toVector).take(SampleVals).map(domTok(_))
    val candIdx =
      if (dom.size <= CandLimit) dom.indices.toVector
      else rnd.shuffle(dom.indices.toVector).take(CandLimit)

    // Main pivot: argmax single entropy (deterministic tie-break by value).
    val scored = candIdx.map(i => (i, entropy(domTok(i), sample, Buckets)))
      .sortBy { case (i, h) => (-h, dom(i)) }
    var chosen  = Vector(scored.head._1)
    var h       = scored.head._2
    // Auxiliary pivots until the joint entropy reaches eMin or cntMax is hit.
    while (h < eMin && chosen.size < cntMax) {
      val remaining = candIdx.filterNot(chosen.contains)
      if (remaining.isEmpty) h = eMin
      else {
        val best = remaining
          .map(i => (i, jointEntropy((chosen :+ i).map(domTok(_)), sample, Buckets)))
          .sortBy { case (i, hh) => (-hh, dom(i)) }
          .head
        chosen = chosen :+ best._1
        h = best._2
      }
    }
    chosen.map(dom)
  }

  def select(repo: Repo, cntMax: Int = 3, eMin: Double = 1.5): Pivots =
    Pivots((0 until repo.d).map(j => selectForAttr(repo, j, cntMax, eMin)).toVector)
}
