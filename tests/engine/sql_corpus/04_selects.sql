SELECT rid, value FROM readings WHERE value > 18;
SELECT rid FROM readings WHERE value > 18 AND value < 22;
SELECT rid, site FROM readings WHERE site = 'a';
SELECT oid FROM objects WHERE x > 0 AND y > 0;
-- a window with finite bounds: the pruned SeqScan over a joint dependency set
SELECT oid FROM objects WHERE x > -1 AND x < 1 AND y > -1 AND y < 1;
SELECT rid, value FROM readings WHERE rid = 2;
SELECT rid FROM readings WHERE NOT (value > 21) OR site = 'b';
SELECT rid FROM readings WHERE site IS NULL;
SELECT DISTINCT site FROM readings;
SELECT rid, site FROM readings ORDER BY rid DESC;
SELECT rid, MEAN(value), MASS(value) FROM readings;
-- joins: equi (keyed hash), non-equi (keyless hash), and a self-join through aliases
SELECT r.rid, p.label FROM readings r, plain p WHERE r.rid = p.k;
SELECT r.rid, p.label FROM readings r, plain p WHERE r.rid > p.k;
SELECT a.rid, b.rid FROM readings a, readings b WHERE a.site = b.site AND a.rid < b.rid;
SELECT a.rid, b.rid FROM readings a, readings b WHERE a.rid < b.rid AND a.value < b.value;
-- three tables: a left-deep chain, each step keyed where an equality ties its table to those joined
SELECT a.rid, p.label, b.rid FROM readings a, plain p, readings b WHERE a.rid = p.k AND a.site = b.site;
SELECT a.rid, o.oid, p.label FROM readings a, objects o, plain p WHERE a.rid = p.k AND o.x > 0;
SELECT * FROM readings a, objects o, plain p WHERE p.k = a.rid;
SELECT a.rid, b.rid, c.rid FROM readings a, readings b, readings c WHERE a.rid < b.rid AND b.rid < c.rid;
-- column aliases: the select list's AS is a Project item, as MEAN / VARIANCE / MASS are
SELECT rid AS reading, value AS v FROM readings WHERE value > 18;
SELECT r.rid AS reading, p.label AS name FROM readings r, plain p WHERE r.rid = p.k;
SELECT rid, value AS v, MEAN(value) AS m FROM readings WHERE value > 18;
-- ORDER BY: an unqualified key names an output column first (an alias, a MEAN / VARIANCE / MASS name), any other a
-- FROM column; a key the select list renames or drops sorts below the Project
CREATE TABLE r (site TEXT, k INT, value REAL UNCERTAIN);
INSERT INTO r VALUES ('s0', 0, GAUSSIAN(0, 1)), ('s1', 1, UNIFORM(0, 2)), ('s0', 2, DISCRETE(1:0.5, 2:0.5)), ('s1', 3, GAUSSIAN(3, 1)), ('s0', 4, HISTOGRAM(0, 4, 8 ; 0.5, 0.5)), ('s1', 5, DISCRETE(5:0.8));
CREATE TABLE q (k INT, w INT);
INSERT INTO q VALUES (0, 9), (1, 3), (2, 7), (3, 1), (4, 5), (5, 2);
SELECT site AS s FROM r ORDER BY s;
SELECT site FROM r ORDER BY k;
SELECT k, MEAN(value) AS m FROM r ORDER BY m;
SELECT k AS site FROM r ORDER BY r.site;
SELECT r.k AS x FROM r, q WHERE r.k = q.k ORDER BY q.w;
