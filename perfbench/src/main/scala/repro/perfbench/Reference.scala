package repro.perfbench

import java.sql.DriverManager
import org.duckdb.DuckDBConnection
import repro.graph.LabeledGraph

/** A relation R_S as a sorted array of cells packed `i << 32 | j`, so that
  * comparing two relations is one array comparison and no boxing.
  */
final case class Rel(cells: Array[Long]) {
  def size: Int = cells.length
  override def equals(o: Any): Boolean = o match {
    case r: Rel => java.util.Arrays.equals(cells, r.cells)
    case _      => false
  }
  override def hashCode: Int = java.util.Arrays.hashCode(cells)
}

object Rel {
  def pack(i: Int, j: Int): Long = (i.toLong << 32) | (j & 0xffffffffL)
  def src(c: Long): Int = (c >>> 32).toInt
  def dst(c: Long): Int = c.toInt

  def of(pairs: Iterable[(Int, Int)]): Rel = {
    val a = new Array[Long](pairs.size)
    var w = 0
    pairs.foreach { case (i, j) => a(w) = pack(i, j); w += 1 }
    java.util.Arrays.sort(a)
    Rel(a)
  }
}

/** The independent reference: Q1 and Q2 are linear recursions, so DuckDB
  * evaluates them as `WITH RECURSIVE` queries over the graph's edge table
  * (the same query shapes as the program's `OracleCTESpec`). No code of
  * the program computes these relations.
  */
object Reference {

  private val q1Step =
    """((e1.label = 'subClassOf_r' AND e2.label = 'subClassOf')
      |  OR (e1.label = 'type_r' AND e2.label = 'type'))""".stripMargin

  val q1Sql: String =
    s"""WITH RECURSIVE s(i, j) AS (
       |  SELECT e1.src, e2.dst FROM edges e1, edges e2
       |  WHERE e1.dst = e2.src AND $q1Step
       |  UNION
       |  SELECT e1.src, e2.dst FROM edges e1, s, edges e2
       |  WHERE e1.dst = s.i AND s.j = e2.src AND $q1Step
       |)
       |SELECT i, j FROM s""".stripMargin

  val q2Sql: String =
    """WITH RECURSIVE b(i, j) AS (
      |  SELECT e1.src, e2.dst FROM edges e1, edges e2
      |  WHERE e1.dst = e2.src AND e1.label = 'subClassOf_r' AND e2.label = 'subClassOf'
      |  UNION
      |  SELECT e1.src, e2.dst FROM edges e1, b, edges e2
      |  WHERE e1.dst = b.i AND b.j = e2.src
      |    AND e1.label = 'subClassOf_r' AND e2.label = 'subClassOf'
      |)
      |SELECT src AS i, dst AS j FROM edges WHERE label = 'subClassOf'
      |UNION
      |SELECT b.i, e.dst AS j FROM b, edges e WHERE b.j = e.src AND e.label = 'subClassOf'""".stripMargin

  /** R_S of `sql` over `graph`, computed by an in-process DuckDB. */
  def relation(graph: LabeledGraph, sql: String): Rel = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:").asInstanceOf[DuckDBConnection]
    try {
      conn.createStatement.execute("CREATE TABLE edges (src INTEGER, label VARCHAR, dst INTEGER)")
      val app = conn.createAppender(DuckDBConnection.DEFAULT_SCHEMA, "edges")
      graph.edges.foreach { case (s, l, d) =>
        app.beginRow(); app.append(s); app.append(l); app.append(d); app.endRow()
      }
      app.close()
      val rs = conn.createStatement.executeQuery(sql)
      val b = Array.newBuilder[Long]
      while (rs.next()) b += Rel.pack(rs.getInt(1), rs.getInt(2))
      val cells = b.result()
      java.util.Arrays.sort(cells)
      Rel(cells)
    } finally conn.close()
  }
}

/** The checks every solve's R_S must pass. Each returns `None` when the
  * check holds and a one-line reason otherwise.
  */
object Checks {

  /** Same cells as the reference. */
  def equalsReference(got: Rel, ref: Rel): Option[String] =
    if (got == ref) None
    else {
      val g = got.cells.toSet; val r = ref.cells.toSet
      val missing = r.diff(g); val extra = g.diff(r)
      def show(s: Set[Long]) = s.take(3).map(c => s"(${Rel.src(c)},${Rel.dst(c)})").mkString(" ")
      Some(s"R_S differs from the reference: ${got.size} vs ${ref.size} pairs, " +
        s"${missing.size} missing [${show(missing)}], ${extra.size} extra [${show(extra)}]")
    }

  /** (i, j) ∈ R ⇔ (j, i) ∈ R — Q1's language is closed under reversal with
    * inverted labels, and the graph holds every edge with its inverse.
    */
  def symmetric(got: Rel): Option[String] = {
    val c = got.cells
    val asym = c.iterator.find { x =>
      java.util.Arrays.binarySearch(c, Rel.pack(Rel.dst(x), Rel.src(x))) < 0
    }
    asym.map(x => s"R_S is not symmetric: (${Rel.src(x)},${Rel.dst(x)}) has no mirror")
  }

  /** R_S on the k-fold repeated graph is exactly k copies of R_S on its base
    * graph (`baseNodes` nodes), copy c shifted by c·baseNodes; a pair that
    * crosses copies, or a copy that differs, fails.
    */
  def repeated(got: Rel, base: Rel, k: Int, baseNodes: Int): Option[String] = {
    val want = new Array[Long](base.size * k)
    var w = 0
    for (c <- 0 until k; x <- base.cells) {
      val off = c * baseNodes
      want(w) = Rel.pack(Rel.src(x) + off, Rel.dst(x) + off); w += 1
    }
    // Copies occupy disjoint, increasing row ranges, so `want` is sorted.
    if (java.util.Arrays.equals(got.cells, want)) None
    else {
      val crossing = got.cells.count(x => Rel.src(x) / baseNodes != Rel.dst(x) / baseNodes)
      Some(s"R_S is not $k shifted copies of the base relation " +
        s"(${got.size} vs ${want.length} pairs, $crossing crossing copies)")
    }
  }
}
